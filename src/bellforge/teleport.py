"""Deterministic port-based teleportation.

The sender holds an input register and one half of N maximally entangled
pairs ("ports"); a single square-root (pretty-good) measurement over the
input plus all sender port halves yields an outcome z, and the receiver's
z-th port half IS the output: no correction is ever applied, the receiver
only discards the other ports.  Average fidelity approaches 1 like
1 - d^2/N while the classical message costs log2(N) bits.

The measurement operators follow the pretty-good-measurement recipe
  sigma_i = (proj onto |Phi+> on input x port i) (x) I/d^(N-1)
  Pi_i    = S^(-1/2) sigma_i S^(-1/2) + (I - P_supp)/N,  S = sum_j sigma_j
with the inverse square root taken on the support of S (eigenvalues below
1e-12 of the largest, (N+d-1)/d^N, are treated as zero) and the
off-support identity shared uniformly so the family is complete.

Every matrix in that recipe is real, so the build runs in float64.  The
measurement is covariant under port permutations, Pi_i = P_1i Pi_1 P_1i
with P_1i the swap of ports A_1 and A_i, and S commutes with every P_1i;
so only Pi_1 is formed, and Pi_i is the exact index permutation of Pi_1
that exchanges the A_1 and A_i digits on rows and columns.

The measurement is also covariant under U (x) conj(U)^(x)N (Studzinski et
al. below), so for diagonal U it conserves a charge per level k: [a_0 = k]
minus the number of ports with a_i = k, for a basis index (a_0,
a_1..a_N).  sigma_i, S, S^(-1/2), the support projector and Pi_1 have no
entries between sectors of different charge, and every port swap maps
each sector onto itself.  `build_pbt_povm` therefore runs sector by
sector: each sector's sigma_1 block and its port swaps come from the
digits of its indices, its S block is the sum of the swapped sigma_1
blocks, and one `eigh` per sector replaces the eigendecomposition of the
whole of S.  The support cutoff is 1e-12 of S's largest eigenvalue,
(N+d-1)/d^N in closed form (Studzinski et al. below), so each sector is
finished before the next is built.  Validation runs once per orbit and sector
(`states.check_povm_orbit`): each block of Pi_1 gets the element check of
every `Povm`, each sector's swaps are checked, and its N images are
summed, one at a time, against the identity, the one check loosened to
ATOL_PBT_POVM.  Pi_1 is block-diagonal, so the measurement's margins are
the least minimum eigenvalue and the largest completeness deviation over
the sectors.  The sectors are the measurement: `PbtMeasurement` keeps
each sector's indices, its block of Pi_1 and its swaps, and assembles a
dense Pi_i only when `element` asks for it.

The resource, N maximally entangled pairs, is fixed by (N, d), so the
measurement is the only port-teleportation object, and
`entanglement_fidelity` never builds it.  For this scheme the
entanglement fidelity has a closed form over Young diagrams
  F = d^-(N+2) sum_{alpha |- N-1} (sum_{mu = alpha + box} sqrt(d_mu m_mu))^2
with d_mu and m_mu the dimensions of the symmetric-group and U(d) irreps
labelled by mu (diagrams with at most d rows), from Studzinski, Strelchuk,
Mozrzymas and Horodecki, Sci. Rep. 7, 10871 (2017); for d = 2 it is the
formula of Ishizaka and Hiroshima, PRL 101, 240501 (2008).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .states import (
    _PRINT_DIGITS,
    MAX_TOTAL_DIM,
    CapExceededError,
    InvariantError,
    _sym,
    check_povm_orbit,
)

# Cutoff for S's pseudo-inverse square root, relative to S's largest
# eigenvalue (N+d-1)/d^N.
PINV_CUTOFF = 1e-12
# The PGM elements pass through several matrix factorizations; completeness
# holds to 1e-9 rather than the raw POVM tolerance.
ATOL_PBT_POVM = 1e-9


@dataclass(frozen=True, eq=False)
class PbtMeasurement:
    """Square-root measurement over the input register plus all sender
    port halves (A_0, A_1..A_N), as its charge sectors, and the margins of
    the orbit check.  Each sector is `(idx, block, swaps)`: its ascending
    basis indices, its read-only float64 block of E_1, and the swap of
    ports A_1 and A_i (`swaps[i - 1]`) as positions within `idx`."""
    N: int
    d: int
    sectors: tuple[tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]], ...]
    min_eigenvalue: float
    completeness_dev: float

    def element(self, z: int) -> np.ndarray:
        """E_z = P_1z E_1 P_1z for z = 1..N, assembled on each call."""
        if not 1 <= z <= self.N:
            raise IndexError(f"outcome {z} outside 1..{self.N}")
        dim = self.d ** (self.N + 1)
        out = np.zeros((dim, dim))
        for idx, block, swaps in self.sectors:
            q = swaps[z - 1]
            out[np.ix_(idx, idx)] = block[np.ix_(q, q)]
        return out


def _integral(v) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_ports(N: int, d: int) -> None:
    if not (_integral(N) and _integral(d)):
        raise ValueError(f"port count N={N!r} and dimension d={d!r} must be "
                         f"integers")
    if N < 1:
        raise ValueError(f"port count N={N} must be >= 1")
    if d < 2:
        raise ValueError(f"port dimension d={d} must be >= 2")


def _capped_dim(what: str, d: int, e: int) -> int:
    """The dimension d**e, refused past MAX_TOTAL_DIM.  A power with more
    digits than Python prints is past the cap and is never formed: the
    message writes it as d^e."""
    if abs(d) > 1 and e >= _PRINT_DIGITS / math.log10(abs(d)):
        raise CapExceededError(f"{what} = {d}^{e} exceeds {MAX_TOTAL_DIM}")
    dim = d ** e
    if dim > MAX_TOTAL_DIM:
        raise CapExceededError(f"{what} = {dim} exceeds {MAX_TOTAL_DIM}")
    return dim


def _charge_sectors(N: int, d: int) -> list[np.ndarray]:
    """The basis indices of (A_0, A_1..A_N), ascending, grouped by charge.

    An index (a_0, a_1..a_N) has, for each level k, the charge [a_0 = k]
    minus the number of ports with a_i = k.  Every operator of the
    measurement commutes with U (x) conj(U)^(x)N for diagonal U, so it has
    no entries between indices of different charge, and each port swap
    maps every sector onto itself.
    """
    dim = d ** (N + 1)
    idx = np.arange(dim)
    charge = np.zeros((dim, d), dtype=np.int64)
    rest = idx
    for reg in range(N, -1, -1):
        rest, digit = np.divmod(rest, d)
        charge[idx, digit] += 1 if reg == 0 else -1
    _, label = np.unique(charge, axis=0, return_inverse=True)
    label = label.reshape(-1)
    order = np.argsort(label, kind="stable")
    return np.split(order, np.cumsum(np.bincount(label))[:-1])


def _sector_swaps(N: int, d: int, idx: np.ndarray) -> list[np.ndarray]:
    """The swap of ports A_1 and A_i, i = 1..N, on one charge sector with
    ascending indices idx, as positions within idx.  Exchanging the digits
    a_1 and a_i moves an index by (a_i - a_1)(d^(N-1) - d^(N-i))."""
    a1 = idx // d ** (N - 1) % d
    return [np.searchsorted(idx, idx + (idx // d ** (N - i) % d - a1)
                            * (d ** (N - 1) - d ** (N - i)))
            for i in range(1, N + 1)]


def build_pbt_povm(N: int, d: int) -> PbtMeasurement:
    """Pretty-good measurement for N ports of dimension d, built and
    finished one charge sector (`_charge_sectors`) at a time as the module
    docstring describes.  In a sector with indices idx, sigma_1's block is
    1/(d d^(N-1)) where a_0 = a_1, b_0 = b_1 and the other ports agree, and
    0 elsewhere."""
    _check_ports(N, d)
    _capped_dim("measurement dimension d^(N+1)", d, N + 1)
    rest = d ** (N - 1)
    cut = PINV_CUTOFF * (N + d - 1) / d ** N
    sectors = []
    margins = []
    for idx in _charge_sectors(N, d):
        ports = idx // rest
        paired = ports // d == ports % d
        others = idx % rest
        sig = (paired[:, None] & paired & (others[:, None] == others)
               ) / (d * rest)
        swaps = _sector_swaps(N, d, idx)
        S = np.zeros_like(sig)
        for q in swaps:
            S = S + sig[np.ix_(q, q)]
        w, v = np.linalg.eigh(S)
        on_supp = w > cut
        inv_root = np.where(on_supp,
                            1.0 / np.sqrt(np.where(on_supp, w, 1.0)), 0.0)
        s_irt = (v * inv_root) @ v.T
        p_supp = (v * on_supp.astype(float)) @ v.T
        remainder = (np.eye(len(idx)) - p_supp) / N
        elem = _sym(s_irt @ sig @ s_irt + remainder)
        margins.append(check_povm_orbit(elem, swaps, atol=ATOL_PBT_POVM))
        for a in (idx, elem, *swaps):
            a.setflags(write=False)
        sectors.append((idx, elem, tuple(swaps)))
    return PbtMeasurement(N=N, d=d, sectors=tuple(sectors),
                          min_eigenvalue=min(m for m, _ in margins),
                          completeness_dev=max(c for _, c in margins))


def _partitions(n: int, rows: int, largest: int | None = None):
    """Partitions of n into at most `rows` parts, as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, rows - 1, first):
            yield (first,) + rest


def _log_irrep_dims(shape: tuple[int, ...], d: int) -> float:
    """log(d_mu m_mu) for the Young diagram `shape` (trailing zero rows
    allowed): the symmetric-group irrep dimension n!/prod(hooks) times the
    U(d) irrep dimension prod(d + content)/prod(hooks), by the hook-length
    and hook-content formulas."""
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    log = math.lgamma(sum(shape) + 1)
    for i, r in enumerate(shape):
        for j in range(r):
            hook = (r - j) + (cols[j] - i) - 1
            log += math.log(d + j - i) - 2.0 * math.log(hook)
    return log


def entanglement_fidelity(N: int, d: int) -> float:
    """Fidelity of teleporting one half of a fresh maximally entangled pair.

    Evaluates the Young-diagram closed form in the module docstring in log
    space, each term scaled by d^-(N+2)/2 so that no intermediate exceeds
    1.  The form allocates nothing; the cap d^(2N+2) <= 2**20 stays so
    that no input's acceptance changes until a cap on the form's own cost
    replaces it.
    """
    _check_ports(N, d)
    _capped_dim("entanglement fidelity cap d^(2N+2)", d, 2 * N + 2)
    log_scale = (N + 2) * math.log(d)
    total = 0.0
    for alpha in _partitions(N - 1, d):
        rows = alpha + (0,)
        inner = 0.0
        for row in range(min(len(rows), d)):
            if row and rows[row] == rows[row - 1]:
                continue  # a box here would break the non-increasing rows
            mu = rows[:row] + (rows[row] + 1,) + rows[row + 1:]
            inner += math.exp(0.5 * (_log_irrep_dims(mu, d) - log_scale))
        total += inner * inner
    return total


@lru_cache(maxsize=None, typed=True)
def depolarizing_parameter(N: int, d: int) -> float:
    """Contraction lam = (d^2 F - 1)/(d^2 - 1) of the depolarizing channel
    rho -> lam rho + (1 - lam) I/d that each outcome induces, with F from
    the closed-form `entanglement_fidelity`.  Raises
    InvariantError unless 0 <= lam <= 1 to 1e-9; smaller noise is clipped."""
    lam = (d * d * entanglement_fidelity(N, d) - 1.0) / (d * d - 1.0)
    if not -1e-9 <= lam <= 1.0 + 1e-9:
        raise InvariantError(f"depolarizing parameter {lam} outside [0, 1] "
                             f"for N={N}, d={d}")
    return min(max(lam, 0.0), 1.0)

"""Dense references for port-based teleportation, built the direct way.

Nothing here shares code with `bellforge.teleport` beyond its eigenvalue
cutoff.  The measurement is the pretty-good-measurement recipe over the
whole space, with every element formed on request by its own product with
S^(-1/2).  The outcome branches
take one square root per element and apply it to the joint ket of input,
reference and pairs.  The fidelity averages the branches of the reference
measurement.  The tests compare the sector build, the closed-form fidelity
and the depolarizing leg with these.
"""

import functools
import math

import numpy as np

from bellforge.states import _sym, max_entangled, psd_sqrt
from bellforge.teleport import PINV_CUTOFF


def pairs(N, d):
    """The N pairs |Phi+> on (A_i, B_i) as a d^N x d^N matrix, rows
    A_1..A_N and columns B_1..B_N: the Kronecker product of N pairs, each
    reshaped to its A x B matrix."""
    pair = max_entangled(d).amplitudes.reshape(d, d)
    return functools.reduce(np.kron, [pair] * N)


def swap_ports(m, N, d, i):
    """P_1i m P_1i as one transpose exchanging the A_1 and A_i axes on rows
    and columns."""
    if i == 1:
        return m
    axes = list(range(2 * (N + 1)))
    for off in (0, N + 1):
        axes[off + 1], axes[off + i] = off + i, off + 1
    return m.reshape((d,) * (2 * (N + 1))).transpose(axes).reshape(m.shape)


def port_swaps(N, d):
    """Index permutation p_i of the swap of ports A_1 and A_i, i = 1..N,
    built from the digits of every basis index of A_0 A_1 .. A_N:
    P_1i m P_1i is m[np.ix_(p_i, p_i)]."""
    perms = []
    for i in range(1, N + 1):
        digits = np.indices((d,) * (N + 1)).reshape(N + 1, -1)
        digits[[1, i]] = digits[[i, 1]]
        perms.append(np.ravel_multi_index(tuple(digits), (d,) * (N + 1)))
    return perms


def pbt_povm(N, d, dtype=np.float64):
    """(signal operators sigma_1..sigma_N, element) in `dtype` arithmetic:
    every signal operator is the pair projector on (A_0, A_1), moved to its
    own port by `swap_ports`, and element(i) forms E_i by its own product
    with S^(-1/2)."""
    phi = max_entangled(d).amplitudes.real.astype(dtype)
    rest = d ** (N - 1)
    sig1 = np.kron(np.outer(phi, phi.conj()), np.eye(rest)) / rest
    sigs = [swap_ports(sig1, N, d, i) for i in range(1, N + 1)]
    w, v = np.linalg.eigh(_sym(sum(sigs)))
    on_supp = w > PINV_CUTOFF * w.max()
    inv_root = np.where(on_supp, 1.0 / np.sqrt(np.where(on_supp, w, 1.0)), 0.0)
    s_irt = (v * inv_root) @ v.conj().T
    p_supp = (v * on_supp.astype(float)) @ v.conj().T
    remainder = (np.eye(len(w)) - p_supp) / N

    def element(i):
        return _sym(s_irt @ sigs[i - 1] @ s_irt + remainder)

    return sigs, element


def purify(rho):
    """Purification of a d x d density matrix: psi[r, a] with reference
    index r first, so that sum_r psi[r,:] psi[r,:]^dag = rho."""
    w, v = np.linalg.eigh(_sym(rho))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w / w.sum())).T.astype(np.complex128)


def branches(psi_in, elements, with_reference):
    """(probability, unnormalized reduced matrix) per outcome z of the
    measurement `elements` (E_1..E_N on A_0, A_1..A_N): one square root per
    element applied to the joint tensor of the purified input psi_in[r, a]
    and the pairs, then every axis but B_z (and R, with `with_reference`)
    traced out by a transpose."""
    N, d = len(elements), psi_in.shape[1]
    dn = d ** N
    joint = np.einsum("ra,xb->raxb", psi_in, pairs(N, d))
    joint = joint.reshape(psi_in.shape[0], d * dn, dn)
    out = []
    for z, elem in enumerate(elements, start=1):
        branch = np.matmul(psd_sqrt(elem), joint)
        branch = branch.reshape((psi_in.shape[0], d * dn) + (d,) * N)
        keep = ([0] if with_reference else []) + [1 + z]
        rest = [a for a in range(branch.ndim) if a not in keep]
        keep_dim = math.prod(branch.shape[a] for a in keep)
        m = branch.transpose(keep + rest).reshape(keep_dim, -1)
        out.append((float(np.vdot(m, m).real), m @ m.conj().T))
    return out


def outputs(rho, elements):
    """(probability, normalized output on the selected port) per outcome
    for the input density matrix rho."""
    out = []
    for prob, raw in branches(purify(rho), elements, False):
        out_rho = _sym(raw / prob)
        out.append((prob, out_rho / np.trace(out_rho).real))
    return out


def entanglement_fidelity(N, d):
    """Fidelity of (reference x output) with |Phi+(d)> when the sender's
    half of |Phi+(d)> is teleported by `pbt_povm`, averaged over all N
    outcomes, each of which must have probability 1/N to within 1e-9."""
    phi = max_entangled(d).amplitudes
    _, element = pbt_povm(N, d)
    out = branches(phi.reshape(d, d),
                   [element(i) for i in range(1, N + 1)], True)
    probs = np.array([prob for prob, _ in out])
    assert np.max(np.abs(N * probs - 1.0)) <= 1e-9, probs
    return sum(float(np.real(phi.conj() @ raw @ phi)) for _, raw in out
               ) / probs.sum()

"""Protocol transformations: one-qubit rounds, memory spans, memoryless form.

`to_single_qubit_rounds` rewrites a protocol so that every transmission is a
single qubit: one shuttle qubit bounces between the parties, carrying the
source protocol's message qubits one at a time in dedicated per-message
blocks of rounds.  Each party's rounds are built in one pass over its
ledger, the registers it holds between rounds, and one rule (`_arrivals`)
says what reaches a round: nothing before Alice's first round, else the
shuttle the other party just sent, a data qubit or a pinned |0> pad.  On
that form, for a fixed input, a party's memory after round i is spanned by
at most 2^i vectors (`_span_chain`), because each round moves exactly
one data qubit and an empty return leg is always exactly |0>.
`to_memoryless` exploits the small span: each round the sender compresses
its whole memory onto that span and appends it to the transmission, so
nothing but blank |0> pads ever stays behind.
"""

from __future__ import annotations

from math import ceil, log2, prod

import numpy as np

from .protocols import CommProtocol, MemorylessProtocol
from .states import InvariantError, Povm, _RegisterMachine

SPAN_RTOL = 1e-5  # singular-value cutoff; squares to the 1e-10 Gram tolerance


def _log2_exact(d: int, what: str) -> int:
    q = d.bit_length() - 1
    if d < 1 or (1 << q) != d:
        raise ValueError(f"{what}: dimension {d} is not a power of 2")
    return q


def _message_blocks(p: CommProtocol):
    """Source messages in send order: (sender, dim, qubit count)."""
    out = []
    for k, (who, d) in enumerate(p.legs):
        if d < 2:
            raise ValueError(
                f"message {k}: dimension {d}; every message must carry at "
                "least one qubit")
        out.append((who, d, _log2_exact(d, f"message {k}")))
    return out


def _arrivals(party: str, carries) -> tuple:
    """What reaches each of `party`'s rounds in single-qubit form: None
    (nothing), False (a pinned |0> pad) or True (a data qubit).

    `carries[k]` says whether leg k, in send order, carries a data qubit.
    Legs alternate Alice, Bob, ...; as in `CommProtocol`, the round that
    sends leg k hears leg k - 1, so Alice's first round hears nothing."""
    heard = (None,) + tuple(carries)  # heard[k]: what leg k's sender hears
    return heard[0 if party == "alice" else 1:len(carries):2]


def _split_party(p: CommProtocol, msgs, sched, party: str, arrivals):
    """One party's split rounds, built in one pass over its ledger: the
    registers it holds between rounds, tag -> dim in kron order.  `sched[t]`
    is the (message, qubit) sent in global round t.  Returns the rounds'
    {v: op}, memory dims and ancilla dims, and the final ledger."""
    ops, mem, src_anc = p.party(party)
    incoming = iter([("q",) + s for s in sched if msgs[s[0]][0] != party])
    held = {("src", -1): mem[0]}
    round_ops, mem_dims, anc_dims = [], [], []
    for t, arrival in enumerate(arrivals):
        k, j = sched[t]
        mine = msgs[k][0] == party
        cols = list(held.items())
        if arrival is not None:  # a data qubit, or a pad that may stay blank
            sh_in = next(incoming) if arrival else ("blank", t)
            cols.insert(0, (sh_in, 2))
            if arrival:
                held[sh_in] = 2
        anc, ell = [], None
        if mine and j == 0:  # the party's source round ell runs
            ell = k // 2
            sel = [("q", k - 1, i) for i in range(msgs[k - 1][2] if k else 0)]
            sel += [("src", ell - 1), ("anc", t)]
            anc.append((("anc", t), src_anc[ell]))
            outs = [(("q", k, i), 2) for i in range(msgs[k][2])]
            outs.append((("src", ell), mem[ell + 1]))
            for tag in sel:
                held.pop(tag, None)
            held.update(outs)
        if mine:
            sent = ("q", k, j)
            del held[sent]
            if arrival is False:
                held[sh_in] = 2
        elif arrival is False:
            sent = sh_in  # the pad bounces straight back
        else:  # the oldest blank, else a fresh |0>
            sent = next((g for g in held if g[0] == "blank"), ("anc", t, "sh"))
            if held.pop(sent, None) is None:
                anc.append((sent, 2))
        by_input = {}
        for v in range(p.truth.num_inputs):
            reg = _RegisterMachine.identity(cols + anc)
            if ell is not None:
                reg.apply(sel, ops[ell][v], outs)
            reg.rename(sent, "sh")  # what leaves is the outgoing shuttle
            by_input[v] = reg.matrix(["sh"] + list(held))
        round_ops.append(by_input)
        mem_dims.append(prod(held.values()))
        anc_dims.append(prod(d for _, d in anc))
    return round_ops, mem_dims, anc_dims, held


def _pull_back(povm: Povm, v: np.ndarray) -> Povm:
    """The POVM v^dag (E (x) I) v: `povm` read on the leading factor of the
    register order that v's rows are in."""
    rest = len(v) // povm.dim
    return Povm([v.conj().T @ np.kron(e, np.eye(rest)) @ v
                 for e in povm.elements])


def to_single_qubit_rounds(p: CommProtocol) -> CommProtocol:
    """Rewrite so every transmitted register is a single qubit.

    One shuttle qubit bounces between the parties each round; the source
    messages ride it one qubit at a time, each message getting a dedicated
    block of rounds.  The number of rounds equals the source's total
    transmitted qubit count, and the output distribution agrees exactly.
    """
    msgs = _message_blocks(p)
    sched = [(k, j) for k, (_, _, q) in enumerate(msgs) for j in range(q)]
    # Global round t sends legs 2t (Alice) and 2t + 1 (Bob); only the
    # message's sender puts data on its leg.
    carries = [msgs[k][0] == who for k, _ in sched
               for who in ("alice", "bob")][:-1]
    arrivals = {who: _arrivals(who, carries) for who in ("alice", "bob")}
    a_ops, a_dims, anc_a, _ = _split_party(p, msgs, sched, "alice",
                                           arrivals["alice"])
    b_ops, b_dims, anc_b, bob_held = _split_party(p, msgs, sched, "bob",
                                                  arrivals["bob"])
    # Bob measures the last message and his last source memory
    # (("src", -1): his initial memory).
    last = len(msgs) - 1
    front = [("q", last, j) for j in range(msgs[last][2] - 1)] \
        + ["sh", ("src", p.rounds - 2)]
    perm = _RegisterMachine.identity([("sh", 2)] + list(bob_held.items())) \
        .matrix(front + [g for g in bob_held if g not in front])
    rounds = len(sched)
    return CommProtocol(
        truth=p.truth, rounds=rounds,
        a0_dim=p.a0_dim, b0_dim=p.b0_dim,
        m_out_dims=(2,) * rounds, m_back_dims=(2,) * (rounds - 1),
        a_dims=tuple(a_dims), b_dims=tuple(b_dims),
        anc_a_dims=tuple(anc_a), anc_b_dims=tuple(anc_b),
        alice_ops=tuple(a_ops), bob_ops=tuple(b_ops),
        observables={y: _pull_back(p.observables[y], perm)
                     for y in range(p.truth.num_inputs)},
        epsilon=p.epsilon,
        meta={"single_qubit_form": True,
              **{f"{who}_in_data": tuple(map(bool, arrivals[who]))
                 for who in ("alice", "bob")}})


def _orthonormal_rows(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the row space, rank at Gram tol 1e-10."""
    if vectors.size == 0:
        return vectors.reshape(0, vectors.shape[-1])
    _, s, vh = np.linalg.svd(vectors, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return vh[:0]
    rank = int(np.sum(s >= SPAN_RTOL * s[0]))
    return vh[:rank]


def _check_single_qubit_form(p: CommProtocol) -> None:
    if any(d != 2 for d in p.m_out_dims + p.m_back_dims):
        raise ValueError(
            "protocol is not in single-qubit-round form; apply "
            "to_single_qubit_rounds first")


def _shuttle_values(p: CommProtocol, party: str):
    """For each of the party's rounds, the values its incoming shuttle
    takes: None when none arrives (`_arrivals`), (0,) when it is pinned
    |0>, (0, 1) when it may carry data.  Without the split's metadata,
    conservatively every leg may carry data."""
    arrivals = _arrivals(party, (True,) * len(p.legs))
    meta = p.meta if isinstance(p.meta, dict) else {}
    flags = meta.get(f"{party}_in_data") \
        if meta.get("single_qubit_form") else None
    if flags is None or len(flags) != len(arrivals):
        flags = arrivals
    return tuple(None if a is None else (0, 1) if data else (0,)
                 for a, data in zip(arrivals, flags))


def _span_chain(p: CommProtocol, party: str, v: int):
    """Orthonormal memory-span bases (rows) after each of the party's rounds."""
    ops, mem, anc_dims = p.party(party)
    cur = np.zeros((1, mem[0]), dtype=np.complex128)
    cur[0, 0] = 1.0
    sh_basis = np.eye(2, dtype=np.complex128)
    chain = []
    for t, shuttle in enumerate(_shuttle_values(p, party)):
        d_mem_out = mem[t + 1]
        anc = np.zeros(anc_dims[t], dtype=np.complex128)
        anc[0] = 1.0
        new = []
        for vec in cur:
            base = np.kron(vec, anc)
            inputs = [base] if shuttle is None else \
                [np.kron(sh_basis[c], base) for c in shuttle]
            for psi in inputs:
                phi = (ops[t][v] @ psi).reshape(2, d_mem_out)
                new.append(phi[0])
                new.append(phi[1])
        cur = _orthonormal_rows(np.array(new))
        if len(cur) > 2 ** (t + 1):
            raise InvariantError(
                f"memory span after round {t + 1} has {len(cur)} vectors, "
                f"exceeding 2^{t + 1}")
        if len(cur) == 0:
            cur = np.zeros((1, d_mem_out), dtype=np.complex128)
            cur[0, 0] = 1.0  # dimension-1 memory: trivial state
        chain.append(cur)
    return chain


def _completion_unitary(basis: np.ndarray, big: int, alpha: int) -> np.ndarray:
    """Unitary compressing span vectors into the low block of alpha qubits.

    Row j * 2^(big_qubits - alpha) is the j-th (embedded) span vector, so the
    map sends span vector j to |j>|0...0>; remaining rows complete the basis.
    """
    d = basis.shape[1]
    pad = big // d
    s = basis.shape[0]
    embedded = np.zeros((s, big), dtype=np.complex128)
    embedded[:, ::pad] = basis
    _, _, vh = np.linalg.svd(embedded, full_matrices=True)
    complement = vh[s:]
    u = np.zeros((big, big), dtype=np.complex128)
    stride = big >> alpha
    span_rows = [j * stride for j in range(s)]
    u[span_rows, :] = embedded
    rest_rows = [i for i in range(big) if i not in span_rows]
    u[rest_rows, :] = complement
    return u


# The compressed-memory register each party writes into the bundle.
_COMPRESSED = {"alice": "cA", "bob": "cB"}


def _is_memory_free(p: CommProtocol) -> bool:
    return all(d == 1 for d in p.a_dims) and all(d == 1 for d in p.b_dims)


def to_memoryless(p: CommProtocol) -> MemorylessProtocol:
    """Convert a single-qubit-round protocol into one where no party keeps
    any information between rounds.

    Each round the sender compresses its entire memory onto its span basis
    (at most i qubits after round i) and appends it to the transmission;
    the receiver decompresses, acts, recompresses, and sends everything
    back.  Only exact-|0> blank pads remain local.  `qubit_cost` counts
    each round's fresh content once: the shuttle plus the two newly
    compressed memories (pass-through qubits continue the same round trip).
    """
    _check_single_qubit_form(p)
    q_rounds = p.rounds
    if _is_memory_free(p):
        # Already memoryless: it is its own source, and its cost is just
        # the qubits it transmits.
        cost = len(p.m_out_dims) + len(p.m_back_dims)
        return MemorylessProtocol(proto=p, qubit_cost=cost,
                                  source_qubits=cost)
    for name in ("a0_dim", "b0_dim"):
        _log2_exact(getattr(p, name), name)
    for name in ("a_dims", "b_dims", "anc_a_dims", "anc_b_dims"):
        for d in getattr(p, name):
            _log2_exact(d, name)
    size = p.truth.num_inputs
    parties = ("alice", "bob")
    chains = {who: [_span_chain(p, who, v) for v in range(size)]
              for who in parties}
    # Compressed memory qubits after each of the party's rounds, and the
    # qubits k of the party's decompressed memory register "amb".
    width = {who: [max(ceil(log2(max(len(b), 1))) for b in bases)
                   for bases in zip(*chains[who])] for who in parties}
    k = {who: max(max(_log2_exact(d, who) for d in p.party(who)[1]),
                  max(width[who], default=0)) for who in parties}
    coms = {who: [[_completion_unitary(c[t], 2 ** k[who], w)
                   for t, w in enumerate(width[who])] for c in chains[who]]
            for who in parties}

    def arrive(who: str, t: int, v: int) -> _RegisterMachine:
        """The registers entering `who`'s round t: shuttle "sh", compressed
        memories "cA" and "cB", and the party's pad "blank" (at t = 0 its
        whole initial memory) decompressed with its own memory into "amb".
        Bob's t = q_rounds - 1 is what his final measurement reads.  Before
        Alice's first round no shuttle exists; a fresh qubit "anc" is there
        to become it."""
        # Each party's latest round before this one (-1: none yet).
        last = {"alice": t - (who == "alice"), "bob": t - 1}
        w = {q: width[q][i] if i >= 0 else 0 for q, i in last.items()}
        fresh = last["alice"] < 0
        reg = _RegisterMachine.identity(
            [("sh", 1 if fresh else 2), ("cA", 2 ** w["alice"]),
             ("cB", 2 ** w["bob"]), ("blank", 2 ** (k[who] - w[who])),
             ("anc", 2 if fresh else 1)])
        u = coms[who][v][t - 1].conj().T if t > 0 else None
        reg.apply([_COMPRESSED[who], "blank"], u, [("amb", 2 ** k[who])])
        return reg

    def round_op(who: str, t: int, v: int) -> np.ndarray:
        ops, mem, anc = p.party(who)
        reg = arrive(who, t, v)
        # The decompressed memory, with the fresh qubit where one exists.
        pool = prod(reg.regs.get(n, 1) for n in ("amb", "anc"))
        reg.apply(["amb", "anc"], None, [("mem", mem[t]), ("sanc", anc[t]),
                                         ("left", pool // mem[t] // anc[t])])
        reg.apply(["sh", "mem", "sanc"], ops[t][v],
                  [("sh", 2), ("mem", mem[t + 1])])
        w = width[who][t]
        reg.apply(["mem", "left"], coms[who][v][t],
                  [(_COMPRESSED[who], 2 ** w), ("blank", 2 ** (k[who] - w))])
        return reg.matrix(["sh", "cA", "cB", "blank"])

    def final_observable(y: int) -> Povm:
        # Bob measures the shuttle and his source memory, the leading
        # d_b factor of "amb"; the rest of the bundle is idle.
        return _pull_back(p.observables[y], arrive("bob", q_rounds - 1, y)
                          .matrix(["sh", "amb", "cA"]))

    alpha, beta = width["alice"], width["bob"]
    m_out = tuple(2 ** (1 + alpha[t] + (beta[t - 1] if t > 0 else 0))
                  for t in range(q_rounds))
    m_back = tuple(2 ** (1 + alpha[t] + beta[t]) for t in range(q_rounds - 1))
    ops = {who: tuple({v: round_op(who, t, v) for v in range(size)}
                      for t in range(len(width[who]))) for who in parties}
    proto = CommProtocol(
        truth=p.truth, rounds=q_rounds,
        a0_dim=2 ** k["alice"], b0_dim=2 ** k["bob"],
        m_out_dims=m_out, m_back_dims=m_back,
        a_dims=tuple(2 ** (k["alice"] - w) for w in alpha),
        b_dims=tuple(2 ** (k["bob"] - w) for w in beta),
        anc_a_dims=(2,) + (1,) * (q_rounds - 1),
        anc_b_dims=(1,) * (q_rounds - 1),
        alice_ops=ops["alice"], bob_ops=ops["bob"],
        observables={y: final_observable(y) for y in range(size)},
        epsilon=p.epsilon,
        meta={"memoryless": True, "alpha": tuple(alpha), "beta": tuple(beta)},
    )
    cost = q_rounds + sum(alpha) + sum(beta)
    return MemorylessProtocol(proto=proto, qubit_cost=cost,
                              source_qubits=q_rounds)

"""Protocol transformations: one-qubit rounds, memory spans, memoryless form.

`to_single_qubit_rounds` rewrites a protocol so that every transmission is a
single qubit: one shuttle qubit bounces between the parties, carrying the
source protocol's message qubits one at a time in dedicated per-message
blocks of rounds.  On that form, for a fixed input, a party's memory after
round i is spanned by at most 2^i vectors (`memory_span_basis`), because
each round moves exactly one data qubit and an empty return leg is always
exactly |0>.  `to_memoryless` exploits the small span: each round the sender
compresses its whole memory onto that span and appends it to the
transmission, so nothing but blank |0> pads ever stays behind.
"""

from __future__ import annotations

import dataclasses
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


@dataclasses.dataclass
class _RoundPlan:
    has_sh_in: bool
    in_mem: list          # (tag, dim) of the memory entering the round
    anc: list             # (tag, dim) fresh |0> axes
    absorb: object        # tag the arriving data qubit becomes, or None
    fire: object          # (src_round, sel_tags, out_dims, out_tags) or None
    sh_out: object        # tag that leaves as the shuttle
    bounce_to: object     # tag a kept |0> bounce becomes, or None
    out_mem: list         # (tag, dim) after the round


def _plan_party(p: CommProtocol, msgs, sched, party: str):
    """Symbolic per-round ledger for one party of the split protocol;
    `sched[t]` is the (message, qubit) sent in global round t."""
    fire_at = {}  # global round -> source round index
    pos = 0
    for k, (who, _, q) in enumerate(msgs):
        if who == party:
            fire_at[pos] = k // 2
        pos += q
    _, mem, src_anc = p.party(party)
    ledger = [(("src", -1), mem[0])] if mem[0] > 1 else []
    blanks = 0
    n_blank = 0
    plans = []
    lag = 1 if party == "alice" else 0  # Alice's round t hears round t - 1
    for t in range(len(sched) - 1 + lag):
        k_in = sched[t - lag] if t >= lag else None
        in_data = k_in is not None and msgs[k_in[0]][0] != party
        has_sh_in = k_in is not None
        in_mem = list(ledger)
        anc, absorb, fire, sh_out = [], None, None, None
        bounce_free = False
        if has_sh_in:
            if in_data:
                absorb = ("q",) + k_in
                ledger.append((absorb, 2))
            else:
                bounce_free = True
        if t in fire_at:
            ell = fire_at[t]
            k_msg = sched[t][0]
            consumed_msg = k_msg - 1  # message this source op takes as input
            sel = []
            if consumed_msg >= 0:
                q_in = msgs[consumed_msg][2]
                sel += [("q", consumed_msg, j) for j in range(q_in)]
            sel.append(("src", ell - 1))
            sa = src_anc[ell]
            if sa > 1:
                anc.append((("anc", t, "src"), sa))
                sel.append(("anc", t, "src"))
            q_out = msgs[k_msg][2]
            out_tags = [("q", k_msg, j) for j in range(q_out)]
            out_dims = [2] * q_out
            sd = mem[ell + 1]
            if sd > 1:
                out_tags.append(("src", ell))
                out_dims.append(sd)
            ledger = [e for e in ledger
                      if e[0] not in sel and e[0] != ("src", ell - 1)]
            ledger += [(tg, d) for tg, d in zip(out_tags, out_dims)]
            fire = (ell, [s for s in sel if s[0] != "src" or mem[ell] > 1],
                    out_dims, out_tags)
        out_is_mine = msgs[sched[t][0]][0] == party
        bounce_to = None
        if out_is_mine:
            sh_out = ("q",) + sched[t]
            ledger = [e for e in ledger if e[0] != sh_out]
            if bounce_free:
                bounce_to = ("blank", n_blank)
                n_blank += 1
                ledger.append((bounce_to, 2))
                blanks += 1
        else:
            if bounce_free:
                sh_out = "bounce"
            elif blanks > 0:
                tag = next(e[0] for e in ledger if e[0][0] == "blank")
                ledger = [e for e in ledger if e[0] != tag]
                blanks -= 1
                sh_out = tag
            else:
                tag = ("anc", t, "sh")
                anc.append((tag, 2))
                sh_out = tag
        plans.append(_RoundPlan(has_sh_in, in_mem, anc, absorb, fire,
                                sh_out, bounce_to, list(ledger)))
    return plans, ledger


def _build_round_op(p: CommProtocol, party: str, plan: _RoundPlan,
                    v: int) -> np.ndarray:
    sh = [("sh", 2)] if plan.has_sh_in else []
    reg = _RegisterMachine.identity(sh + plan.in_mem + plan.anc)
    if plan.absorb is not None:
        reg.rename("sh", plan.absorb)
    elif plan.has_sh_in:
        reg.rename("sh", "bounce")
    if plan.fire is not None:
        ell, sel, out_dims, out_tags = plan.fire
        reg.apply(sel, p.party(party)[0][ell][v], zip(out_tags, out_dims))
    if plan.bounce_to is not None:
        reg.rename("bounce", plan.bounce_to)
    reg.rename(plan.sh_out, "sh")
    return reg.matrix(["sh"] + [t for t, _ in plan.out_mem])


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
    plans_a, _ = _plan_party(p, msgs, sched, "alice")
    plans_b, bob_ledger = _plan_party(p, msgs, sched, "bob")
    size = p.truth.num_inputs
    alice_ops = tuple(
        {x: _build_round_op(p, "alice", plan, x) for x in range(size)}
        for plan in plans_a)
    bob_ops = tuple(
        {y: _build_round_op(p, "bob", plan, y) for y in range(size)}
        for plan in plans_b)
    # Bob measures the last message and his last source memory
    # (("src", -1): his initial memory).
    last = len(msgs) - 1
    front = [("q", last, j) for j in range(msgs[last][2] - 1)] \
        + ["sh", ("src", p.rounds - 2)]
    perm = _RegisterMachine.identity([("sh", 2)] + bob_ledger).matrix(
        front + [t for t, _ in bob_ledger if t not in front])
    a_out = tuple(msgs[k][0] == "alice" for k, _ in sched)
    rounds = len(sched)
    return CommProtocol(
        truth=p.truth, rounds=rounds,
        a0_dim=p.a0_dim, b0_dim=p.b0_dim,
        m_out_dims=(2,) * rounds, m_back_dims=(2,) * (rounds - 1),
        a_dims=tuple(prod(d for _, d in plan.out_mem) for plan in plans_a),
        b_dims=tuple(prod(d for _, d in plan.out_mem) for plan in plans_b),
        anc_a_dims=tuple(prod(d for _, d in plan.anc) for plan in plans_a),
        anc_b_dims=tuple(prod(d for _, d in plan.anc) for plan in plans_b),
        alice_ops=alice_ops, bob_ops=bob_ops,
        observables={y: _pull_back(p.observables[y], perm)
                     for y in range(size)},
        epsilon=p.epsilon,
        meta={"single_qubit_form": True,
              "alice_in_data": (False,) + tuple(not a for a in a_out[:-1]),
              "bob_in_data": a_out[:-1]})


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


def _shuttle_values(p: CommProtocol, party: str, n: int):
    """For each of the party's n rounds, the values its incoming shuttle
    takes: None when none arrives (Alice's first round), (0,) when it is
    pinned |0>, (0, 1) when it may carry data."""
    meta = p.meta if isinstance(p.meta, dict) else {}
    flags = meta.get(f"{party}_in_data") \
        if meta.get("single_qubit_form") else None
    if flags is None or len(flags) != n:
        # Without construction metadata, conservatively branch on every leg.
        flags = (True,) * n
    return tuple(None if party == "alice" and t == 0 else (0, 1) if data
                 else (0,) for t, data in enumerate(flags))


def _span_chain(p: CommProtocol, party: str, v: int):
    """Orthonormal memory-span bases (rows) after each of the party's rounds."""
    ops, mem, anc_dims = p.party(party)
    cur = np.zeros((1, mem[0]), dtype=np.complex128)
    cur[0, 0] = 1.0
    sh_basis = np.eye(2, dtype=np.complex128)
    chain = []
    for t, shuttle in enumerate(_shuttle_values(p, party, len(ops))):
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


def memory_span_basis(p: CommProtocol, party: str, round_index: int,
                      input_value: int) -> np.ndarray:
    """Orthonormal basis (rows) spanning the party's possible memory states
    after its round `round_index` (1-based), over all communication
    histories, for a fixed own input.

    At most 2^i vectors; a dimension-1 (absent) memory yields an empty
    basis.  The bound is guaranteed for protocols produced by
    to_single_qubit_rounds; for hand-built single-qubit protocols every
    incoming leg is treated as potentially data-carrying.
    """
    ops, mem, _ = p.party(party)
    _check_single_qubit_form(p)
    n = len(ops)
    if not 1 <= round_index <= n:
        raise ValueError(f"round_index {round_index} outside 1..{n}")
    size = p.truth.num_inputs
    if not 0 <= input_value < size:
        raise ValueError(f"input {input_value} outside 0..{size - 1}")
    if mem[round_index] == 1:
        return np.zeros((0, 1), dtype=np.complex128)
    return _span_chain(p, party, input_value)[round_index - 1]


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

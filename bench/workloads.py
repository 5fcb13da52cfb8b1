"""Workload job lists and the seeded input generator.

Every job is one `python -m bellforge ...` invocation.  The generator
writes all inputs a workload needs into a work directory; the program sees
only those files (plus the shipped example configs under docs/examples/v1).

Inputs are drawn with the benchmark's own numpy code, not with the library's
`random_protocol`, so that a change to the library's random-number use does
not change what the benchmark measures.  Cost-relevant structure is held
fixed across seeds (see `_protocol_doc` and `_cc_table`), so the seed varies
values, not the amount of work.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from check import one_way_values

EXAMPLES = os.path.join("docs", "examples", "v1")
DEFAULT_SEED = 0

# Sampled certification twins: fixed seed and trial count, so their report
# is the same for every benchmark seed.
SAMPLED_SEED = 7
SAMPLED_TRIALS = 10 ** 6
SWEEP_DELTAS = 64
CC_TARGETS = (2.0 / 3.0, 0.6, 0.625)  # what `cc` asks distributional_cc


@dataclass(frozen=True)
class Job:
    """One CLI run.  `seeded` marks jobs whose inputs depend on the seed."""
    name: str
    argv: tuple[str, ...]
    env: dict = field(default_factory=dict)
    seeded: bool = False


def _write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def _encode(a: np.ndarray) -> dict:
    """The protocol schema's array encoding: shape plus row-major
    interleaved real/imag floats."""
    a = np.asarray(a, dtype=np.complex128)
    pairs = np.stack([a.real.ravel(), a.imag.ravel()], axis=1)
    return {"shape": list(a.shape), "data": [float(v) for v in pairs.ravel()]}


def _haar(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _truth(n: int, rng: np.random.Generator) -> dict:
    size = 2 ** n
    f = rng.integers(0, 2, size=(size, size))
    mu = rng.uniform(0.1, 1.0, size=(size, size))
    return {"n": n, "f": f.tolist(), "mu": (mu / mu.sum()).tolist()}


def _protocol_doc(rng: np.random.Generator) -> dict:
    """A one-round protocol from the family `random_protocol(rounds=1,
    max_qubits=2)` draws, pinned to the register shape a0=4, message 4,
    kept memory 2, one ancilla qubit.  That shape converts to memoryless
    legs (4, 8, 8), so every seed certifies one d=8 port leg and enumerates
    the same 3-level local-strategy space.  Other shapes of the family
    convert to legs (4,) or (2,) and would make the cost depend on the seed.

    Two-round sources are left out: their memoryless legs reach 16 to 128
    dimensions, and a 16-dimensional leg alone takes minutes and gigabytes.
    """
    size = 2
    alice = [_encode(_haar(8, rng)) for _ in range(size)]
    observables = []
    for _ in range(size):
        u = _haar(4, rng)
        k = int(rng.integers(1, 4))
        proj = u[:, :k] @ u[:, :k].conj().T
        observables.append([_encode(proj), _encode(np.eye(4) - proj)])
    return {
        "format": "bellforge-protocol", "schema_version": 1,
        "truth": _truth(1, rng), "epsilon": None, "rounds": 1,
        "registers": {"a0_dim": 4, "b0_dim": 1, "m_out_dims": [4],
                      "m_back_dims": [], "a_dims": [2], "b_dims": [],
                      "anc_a_dims": [2], "anc_b_dims": []},
        "alice_ops": [alice], "bob_ops": [], "observables": observables,
    }


def _cc_table(rng: np.random.Generator) -> dict:
    """A uniform random n=3 truth table, redrawn until one bit one way
    already reaches every target `cc` asks for and two bits do not reach
    success 1.  Then `cc ... --method tree --bits 2` runs exactly one
    interactive split search (16.7M strategies) whatever the seed."""
    while True:
        doc = _truth(3, rng)
        v = one_way_values(np.array(doc["f"]), np.array(doc["mu"]), 2)
        if v[1] >= max(CC_TARGETS) + 1e-6 and v[2] <= 1.0 - 1e-6:
            return doc


def _sweep_doc(rng: np.random.Generator) -> dict:
    deltas = np.sort(rng.uniform(0.001, 0.999, size=SWEEP_DELTAS))
    return {"format": "bellforge-oneway-sweep", "boxes": "deterministic",
            "deltas": [float(d) for d in deltas]}


def _cli(command: str, config: str, out: str) -> tuple[str, ...]:
    return ("-m", "bellforge", command, "--config", config, "--out", out)


def build(workload: str, seed: int, work: str) -> list[Job]:
    """Write the workload's inputs under `work` and return its job list."""
    rng = np.random.default_rng([seed, 0x6265])

    def out(name: str) -> str:
        return os.path.join(work, f"{name}.report.json")

    def cfg(name: str, doc: dict) -> str:
        return _write_json(os.path.join(work, f"{name}.config.json"), doc)

    if workload == "pbt-sweep":
        d3 = cfg("pbt_d3", {"command": "pbt-bench", "d": 3,
                            "ports": [1, 2, 3, 4, 5]})
        return [
            Job("pbt_d2", _cli("pbt-bench", os.path.join(
                EXAMPLES, "pbt_bench.config.json"), out("pbt_d2"))),
            Job("pbt_d3", _cli("pbt-bench", d3, out("pbt_d3"))),
        ]

    if workload == "certify":
        sampled = cfg("certify_sampled", {
            "command": "bell-certify", "protocol": "builtin:qrac",
            "schedule": [4], "mode": "sampled", "trials": SAMPLED_TRIALS,
            "seed": SAMPLED_SEED})
        jobs = [
            Job("certify_qrac8", _cli("bell-certify", os.path.join(
                EXAMPLES, "bell_certify.config.json"), out("certify_qrac8"))),
            Job("certify_sampled_t1", _cli("bell-certify", sampled,
                                           out("certify_sampled_t1")),
                env={"BELLFORGE_THREADS": "1"}),
            Job("certify_sampled_t2", _cli("bell-certify", sampled,
                                           out("certify_sampled_t2")),
                env={"BELLFORGE_THREADS": "2"}),
        ]
        for i in range(2):
            name = f"certify_rand{i}"
            proto = _write_json(os.path.join(work, f"{name}.protocol.json"),
                                _protocol_doc(rng))
            jobs.append(Job(name, _cli("bell-certify", cfg(name, {
                "command": "bell-certify", "protocol": proto,
                "mode": "exact"}), out(name)), seeded=True))
        sweep = _write_json(os.path.join(work, "sweep.json"), _sweep_doc(rng))
        jobs += [
            Job("oneway_qrac", _cli("oneway", os.path.join(
                EXAMPLES, "oneway.config.json"), out("oneway_qrac"))),
            Job("oneway_sweep", _cli("oneway", cfg("oneway_sweep", {
                "command": "oneway", "protocol": "builtin:qrac",
                "sweep_file": sweep}), out("oneway_sweep")), seeded=True),
        ]
        return jobs

    if workload == "cc-search":
        jobs = [Job("cc_qrac", _cli("cc", os.path.join(
            EXAMPLES, "cc.config.json"), out("cc_qrac")))]
        for name, method in (("cc_oneway0", "one_way"),
                             ("cc_oneway1", "one_way"), ("cc_tree", "tree")):
            table = _write_json(os.path.join(work, f"{name}.truth.json"),
                                _cc_table(rng))
            jobs.append(Job(name, _cli("cc", cfg(name, {
                "command": "cc", "function": table, "bits": 2,
                "method": method}), out(name)), seeded=True))
        return jobs

    raise KeyError(workload)


WORKLOADS = ("pbt-sweep", "certify", "cc-search")
JOB_NAMES = (
    "pbt_d2", "pbt_d3",
    "certify_qrac8", "certify_sampled_t1", "certify_sampled_t2",
    "certify_rand0", "certify_rand1", "oneway_qrac", "oneway_sweep",
    "cc_qrac", "cc_oneway0", "cc_oneway1", "cc_tree",
)

"""JSON encoding for arrays, truth tables, protocols, and reports.

Matrices and state vectors serialize as {"shape": [...], "data": [...]}
with the complex entries flattened row-major and interleaved as
real, imag pairs.  Floats are written in shortest-roundtrip decimal
text, so decoding reproduces every bit.  Canonical report text sorts
keys, indents by two spaces, and spells non-finite values as the strings
"Infinity" / "-Infinity"; NaN is rejected outright.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from .protocols import CommProtocol, TruthTable

SCHEMA_VERSION = 1


def encode_array(a: np.ndarray) -> dict[str, Any]:
    """Row-major interleaved real/imag encoding of a numeric array."""
    arr = np.asarray(a, dtype=np.complex128)
    stacked = np.stack([arr.real.ravel(), arr.imag.ravel()], axis=1)
    return {"shape": list(arr.shape),
            "data": [float(v) for v in stacked.ravel()]}


def is_json_int(v: Any) -> bool:
    """A JSON integer; JSON true/false load as bool, a subclass of int."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_json_number(v: Any) -> bool:
    """A JSON number that is finite as a float64: not a bool or a string,
    and neither NaN nor Infinity (Python's json module loads both) nor an
    integer past the float range."""
    if is_json_int(v):
        return abs(v) <= sys.float_info.max
    return isinstance(v, float) and math.isfinite(v)


def _is_bit(v: Any) -> bool:
    return is_json_int(v) and v in (0, 1)


def _table(v: Any, ok, refusal: str) -> np.ndarray:
    """A JSON list of rows whose entries all pass `ok`, as an array;
    anything else raises ValueError(refusal)."""
    if not (isinstance(v, list) and all(
            isinstance(row, list) and all(ok(x) for x in row) for row in v)):
        raise ValueError(refusal)
    return np.asarray(v)


def _int_field(v: Any, what: str) -> int:
    """An integer field of a document, refused unless a JSON integer."""
    if not is_json_int(v):
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return v


def decode_array(obj: dict[str, Any]) -> np.ndarray:
    """Inverse of encode_array; returns a complex array."""
    shape = tuple(_int_field(s, "array shape entry") for s in obj["shape"])
    data = obj["data"]
    if not (isinstance(data, list) and all(is_json_number(v) for v in data)):
        raise ValueError("array data must be a list of finite numbers")
    n = math.prod(shape)
    if len(data) != 2 * n:
        raise ValueError(f"array data length {len(data)} does not match "
                         f"2 * prod{shape}")
    flat = np.asarray(data, dtype=np.float64).reshape(n, 2)
    return np.ascontiguousarray(
        (flat[:, 0] + 1j * flat[:, 1]).reshape(shape))


def truth_to_dict(t: TruthTable) -> dict[str, Any]:
    return {"n": t.n,
            "f": t.f.astype(int).tolist(),
            "mu": t.mu.tolist()}


def truth_from_dict(d: dict[str, Any]) -> TruthTable:
    from .protocols import TruthTable
    if not isinstance(d, dict):
        raise ValueError("a truth table must be a JSON object")
    return TruthTable(n=_int_field(d["n"], "n"),
                      f=_table(d["f"], _is_bit,
                               "f must be rows of the integers 0 and 1"),
                      mu=_table(d["mu"], is_json_number,
                                "mu must be rows of finite numbers"))


def protocol_to_dict(p: CommProtocol) -> dict[str, Any]:
    size = p.truth.num_inputs
    return {
        "format": "bellforge-protocol",
        "schema_version": SCHEMA_VERSION,
        "truth": truth_to_dict(p.truth),
        "epsilon": p.epsilon,
        "rounds": p.rounds,
        "registers": {
            "a0_dim": p.a0_dim,
            "b0_dim": p.b0_dim,
            "m_out_dims": list(p.m_out_dims),
            "m_back_dims": list(p.m_back_dims),
            "a_dims": list(p.a_dims),
            "b_dims": list(p.b_dims),
            "anc_a_dims": list(p.anc_a_dims),
            "anc_b_dims": list(p.anc_b_dims),
        },
        "alice_ops": [[encode_array(ops[x]) for x in range(size)]
                      for ops in p.alice_ops],
        "bob_ops": [[encode_array(ops[x]) for x in range(size)]
                    for ops in p.bob_ops],
        "observables": [[encode_array(e) for e in p.observables[y].elements]
                        for y in range(size)],
    }


def protocol_from_dict(d: dict[str, Any]) -> CommProtocol:
    from .protocols import CommProtocol
    from .states import Povm
    if not isinstance(d, dict) or d.get("format") != "bellforge-protocol":
        raise ValueError("not a protocol document (missing format tag)")
    if _int_field(d.get("schema_version", 0), "schema_version") \
            > SCHEMA_VERSION:
        raise ValueError(f"protocol schema version {d['schema_version']} "
                         f"is newer than supported {SCHEMA_VERSION}")
    truth = truth_from_dict(d["truth"])
    regs = d["registers"]
    eps = d.get("epsilon")
    if eps is not None and not is_json_number(eps):
        raise ValueError(f"epsilon must be a finite number, got {eps!r}")

    def dims(key):
        return tuple(_int_field(v, f"{key} entry") for v in regs[key])
    return CommProtocol(
        truth=truth,
        rounds=_int_field(d["rounds"], "rounds"),
        a0_dim=_int_field(regs["a0_dim"], "a0_dim"),
        b0_dim=_int_field(regs["b0_dim"], "b0_dim"),
        m_out_dims=dims("m_out_dims"),
        m_back_dims=dims("m_back_dims"),
        a_dims=dims("a_dims"),
        b_dims=dims("b_dims"),
        anc_a_dims=dims("anc_a_dims"),
        anc_b_dims=dims("anc_b_dims"),
        alice_ops=tuple({x: decode_array(m) for x, m in enumerate(ops)}
                        for ops in d["alice_ops"]),
        bob_ops=tuple({x: decode_array(m) for x, m in enumerate(ops)}
                      for ops in d["bob_ops"]),
        observables={y: Povm([decode_array(e) for e in els])
                     for y, els in enumerate(d["observables"])},
        epsilon=None if eps is None else float(eps),
    )


def load_protocol(path: str) -> CommProtocol:
    with open(path, "r", encoding="utf-8") as fh:
        return protocol_from_dict(json.load(fh))


def _sanitize(obj: Any) -> Any:
    """Convert to plain JSON types; stringify infinities, reject NaN."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return encode_array(obj)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v):
            raise ValueError("NaN is not representable in reports")
        if math.isinf(v):
            return "Infinity" if v > 0 else "-Infinity"
        return v
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def dumps_canonical(obj: Any) -> str:
    """Deterministic report text: sorted keys, two-space indent, exact
    shortest-roundtrip floats, trailing newline."""
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never observe
    a partial report."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bellforge-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

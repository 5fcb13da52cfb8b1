"""No input document ends in a traceback.

Hypothesis mutates the shipped example configs, the shipped qrac protocol,
a one-round protocol whose memory and start registers have dimension 3,
the deterministic sweep file and a truth-table file: a value anywhere in
the document becomes NaN, an infinity, a string, a bool, a float, a huge
or negative integer, null or an empty container; or it is wrapped in one
more list; or its key or list entry is deleted.  A protocol's register
fields, `rounds` and `epsilon`, and the keys of the `cc`, `pbt-bench` and
`bell-certify` configs, may also take a value that still loads, so that
mutated protocols reach the converters and mutated configs the
computation.  Each mutated document is run through the command that reads
it, in-process.  Every run must return an exit code 0-3 without raising, a
usage error (1) must be reported on stderr, and a cap or invariant failure
(2, 3) must write its error report.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from bellforge import cli
from bellforge import serialize as sz
from bellforge.protocols import CommProtocol, builtin_qrac
from bellforge.states import Povm, random_unitary

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(REPO, "docs", "examples", "v1")


def _example(name):
    with open(os.path.join(EXAMPLES, name), encoding="utf-8") as fh:
        return json.load(fh)


SWEEP_CONFIG = _example("oneway_sweep.config.json")
SWEEP_CONFIG["sweep_file"] = os.path.join(EXAMPLES,
                                          "sweep_deterministic.json")
EQ1_TRUTH = {"n": 1, "f": [[1, 0], [0, 1]],
             "mu": [[0.25, 0.25], [0.25, 0.25]]}


def _memory3_protocol():
    """One round on the qrac table: Alice's start memory 3 and ancilla 2
    in, a qubit message and kept memory 3 out.  `bell-certify` refuses
    its dimension-3 registers."""
    truth = builtin_qrac().truth
    rng = np.random.default_rng(0)
    inputs = range(truth.num_inputs)
    proj = np.diag([1.0, 0.0])
    return sz.protocol_to_dict(CommProtocol(
        truth=truth, rounds=1, a0_dim=3, b0_dim=1, m_out_dims=(2,),
        m_back_dims=(), a_dims=(3,), b_dims=(), anc_a_dims=(2,),
        anc_b_dims=(), alice_ops=({v: random_unitary(6, rng)
                                   for v in inputs},),
        bob_ops=(), observables={y: Povm([proj, np.eye(2) - proj])
                                 for y in inputs}))


# name -> (document, [(command, config naming the document's file, or
# None when the document is itself the config)])
TARGETS = {
    "bell-certify-config": (_example("bell_certify.config.json"),
                            [("bell-certify", None)]),
    "cc-config": (_example("cc.config.json"), [("cc", None)]),
    "oneway-config": (_example("oneway.config.json"), [("oneway", None)]),
    "oneway-sweep-config": (SWEEP_CONFIG, [("oneway", None)]),
    "pbt-bench-config": (_example("pbt_bench.config.json"),
                         [("pbt-bench", None)]),
    "protocol": (_example("protocol_qrac.json"),
                 [("bell-certify", "protocol"), ("oneway", "protocol")]),
    "protocol-memory3": (_memory3_protocol(),
                         [("bell-certify", "protocol"), ("oneway", "protocol")]),
    "truth": (EQ1_TRUTH, [("cc", "function")]),
    "sweep": (_example("sweep_deterministic.json"),
              [("oneway", "sweep_file")]),
}

DELETE, NEST = object(), object()
MUTATIONS = [float("nan"), float("inf"), float("-inf"), "0.25", "", True,
             False, 0.5, 2.0, -1.5, 10 ** 400, -(10 ** 400), -1, 0, None,
             [], {}, DELETE, NEST]


def _paths(doc, prefix=()):
    """Every path (keys and list indices) into a JSON document."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutate(doc, path, how):
    """`doc` with the value at `path` replaced, nested or deleted."""
    if not path:
        return doc if how is DELETE else [doc] if how is NEST else how
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if how is DELETE:
        del parent[key]
    else:
        parent[key] = [parent[key]] if how is NEST else how
    return doc


# Values a field of each kind may take and still load, per target.  A
# config's kinds are its keys, and "key[]" for an entry of a list value.
PROTOCOL_IN_RANGE = {"registers": [1, 2, 4], "rounds": [1, 2],
                     "epsilon": [0.125, 0.5, None, DELETE]}
IN_RANGE = {
    "protocol": PROTOCOL_IN_RANGE,
    "protocol-memory3": PROTOCOL_IN_RANGE,
    "cc-config": {"command": ["cc"], "bits": [0, 1, 2, 3],
                  "method": ["one_way", "tree"],
                  "function": ["qrac", "eq1"]},
    "pbt-bench-config": {"command": ["pbt-bench"],
                         "ports": [[1], [2, 3], [1, 4]],
                         "ports[]": [1, 2, 3], "d": [2, 3]},
    "bell-certify-config": {"command": ["bell-certify"],
                            "schedule": [[1], [2], [4], [2, 2, 2]],
                            "schedule[]": [1, 2, 3],
                            "mode": ["exact", "sampled"],
                            "protocol": ["builtin:qrac", "builtin:const1"]},
}


def _path_kind(name, path):
    """A path's kind.  A protocol document's register fields, `rounds` and
    `epsilon` each stand alone, and everything else is array data or the
    structure around it; a config's kind is the key it changes."""
    if name.startswith("protocol"):
        if path[:1] in (("registers",), ("rounds",), ("epsilon",)):
            return path[0]
        return "arrays"
    if not path:
        return "document"
    return path[0] if len(path) == 1 else f"{path[0]}[]"


@st.composite
def mutated(draw):
    """A target and its document after one to three mutations.  Nearly
    every path of a protocol document is an array entry, and nearly every
    value of MUTATIONS fails the load or the config checks, so a mutation
    of a target with IN_RANGE values draws the path kind first, then a
    path of that kind, then a value that may also be one of the kind's
    IN_RANGE values; otherwise almost no mutated protocol would reach the
    converters and no mutated config the computation."""
    name = draw(st.sampled_from(sorted(TARGETS)))
    doc, readers = TARGETS[name]
    in_range = IN_RANGE.get(name, {})
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        how = st.sampled_from(MUTATIONS)
        if in_range:
            kinds = sorted({_path_kind(name, p) for p in paths})
            kind = draw(st.sampled_from(kinds))
            paths = [p for p in paths if _path_kind(name, p) == kind]
            if kind in in_range:
                how = st.one_of(how, st.sampled_from(in_range[kind]))
        path = draw(st.sampled_from(paths))
        doc = _mutate(doc, path, draw(how))
    return name, doc, readers


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _run(command, config_path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", config_path])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, derandomize=True, deadline=5000)
@given(mutated())
def test_mutated_inputs_exit_cleanly(case):
    name, doc, readers = case
    with tempfile.TemporaryDirectory() as tmp:
        doc_path = _write(os.path.join(tmp, "doc.json"), doc)
        for command, key in readers:
            config = doc_path if key is None else _write(
                os.path.join(tmp, "config.json"), {key: doc_path})
            code, out, err = _run(command, config)
            assert code in (0, 1, 2, 3), (name, doc)
            if code == 1:
                assert out == "" and err.startswith("error: "), (name, doc)
            elif code in (2, 3):
                report = json.loads(out)
                assert report["error"]["code"] == (
                    "cap_exceeded" if code == 2 else "invariant_failure")


def test_overlong_integer_literal_is_usage_error(tmp_path):
    # json refuses an integer literal longer than Python converts with a
    # plain ValueError, not a JSONDecodeError.
    huge = "9" * 5000
    sweep = tmp_path / "sweep.json"
    sweep.write_text('{"format": "bellforge-oneway-sweep", '
                     f'"boxes": "deterministic", "deltas": [{huge}]}}')
    for command, text in (("pbt-bench", f'{{"ports": [{huge}]}}'),
                          ("oneway", json.dumps({"sweep_file": str(sweep)}))):
        config = tmp_path / "config.json"
        config.write_text(text)
        code, out, err = _run(command, str(config))
        assert code == 1 and out == ""
        assert "not valid JSON" in err

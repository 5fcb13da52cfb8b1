"""Run one bellforge CLI command with timing shims on its layers.

    python bench/traced.py SPANS.json COMMAND [ARGS...]

The arguments after SPANS.json are handed to `bellforge.cli.main`.  Before
the call, every function listed in SHIMS is replaced by a wrapper that
records a span (name, start, end, parent) and, for some functions, work
counts computed from the call's arguments.  The wrapper is installed in
every bellforge module namespace that holds a reference to the function,
since `bell` and `cli` import names directly.  Nothing under `src/` is
edited, and the report the command writes is the same as without shims.
A function a later version removes is skipped and reports 0 calls.

Spans stay in memory and are written to SPANS.json when the command ends.
The process exits with the command's exit code.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); "Class.__init__" shims construction.
SHIMS = (
    ("bellforge.cli", "main", "cli.cmd"),
    ("bellforge.teleport", "build_pbt_povm", "teleport.build_pbt_povm"),
    ("bellforge.teleport", "entanglement_fidelity",
     "teleport.entanglement_fidelity"),
    ("bellforge.teleport", "_branch_tensors", "teleport.branch_tensors"),
    ("bellforge.states", "Povm.__init__", "states.Povm"),
    ("bellforge.states", "psd_sqrt", "states.psd_sqrt"),
    ("bellforge.states", "MixedState.__init__", "states.MixedState"),
    ("numpy.linalg", "eigh", "numpy.eigh"),
    ("numpy.linalg", "eigvalsh", "numpy.eigvalsh"),
    ("numpy", "einsum", "numpy.einsum"),
    ("bellforge.bell", "generate_correlations", "bell.generate_correlations"),
    ("bellforge.bell", "_branch_kraus", "bell.branch_kraus"),
    ("bellforge.bell", "_chain_terminal", "bell.chain_terminal"),
    ("bellforge.bell", "lhv_bound", "bell.lhv_bound"),
    ("bellforge.bell", "_lhv_exact", "bell.lhv_exact"),
    ("bellforge.bell", "nonlinear_bell_check", "bell.nonlinear_bell_check"),
    ("bellforge.classicalcc", "best_success_one_way",
     "classicalcc.best_success_one_way"),
    ("bellforge.classicalcc", "best_success_tree",
     "classicalcc.best_success_tree"),
    ("bellforge.classicalcc", "_tree_split_value",
     "classicalcc.tree_split_value"),
    ("bellforge.classicalcc", "distributional_cc",
     "classicalcc.distributional_cc"),
    ("bellforge.transforms", "to_single_qubit_rounds",
     "transforms.to_single_qubit_rounds"),
    ("bellforge.transforms", "to_memoryless", "transforms.to_memoryless"),
    ("bellforge.protocols", "success_probability",
     "protocols.success_probability"),
    ("bellforge.protocols", "run_exact", "protocols.run_exact"),
    ("bellforge.serialize", "load_protocol", "serialize.load_protocol"),
    ("bellforge.serialize", "dumps_canonical", "serialize.dumps_canonical"),
    ("bellforge.remoteprep", "rsp_povm", "remoteprep.rsp_povm"),
    ("bellforge._threads", "thread_map", "threads.thread_map"),
)


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _truth_key(t) -> tuple:
    return (t.n, t.f.tobytes(), t.mu.round(12).tobytes())


class Tracer:
    """Spans and work counts of one process."""

    def __init__(self):
        self.spans: list[tuple] = []      # (id, name, start, end, parent)
        self.sums: dict[str, float] = defaultdict(float)
        self.maxes: dict[str, float] = defaultdict(float)
        self.seen: dict[str, set] = defaultdict(set)
        self._ids = itertools.count()
        self._local = threading.local()

    def stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name: str, fn, before=None, after=None):
        """Span-recording wrapper.  `before(tracer, sid, args, kwargs)` may
        return replacement (args, kwargs); `after(tracer, args, kwargs,
        outcome)` sees the result or the exception raised."""
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = tracer.stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            if before is not None:
                args, kwargs = before(tracer, sid, args, kwargs)
            stack.append(sid)
            outcome = None
            start = perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as e:
                outcome = e
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent))
                if after is not None:
                    after(tracer, args, kwargs, outcome)
        return shim

    def dump(self, path: str, caps: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "sums": self.sums,
                       "maxes": self.maxes, "caps": caps}, fh)


# ------------------------------------------------ work counts from arguments


def _povm_counts(tr: Tracer, sid, args, kwargs):
    n, d = _arg(args, kwargs, 0, "N"), _arg(args, kwargs, 1, "d")
    tr.sums["teleport.dense_dim3"] += float(d ** (n + 1)) ** 3
    if (n, d) in tr.seen["povm"]:
        tr.sums["teleport.build_pbt_povm.rebuilds"] += 1
    tr.seen["povm"].add((n, d))
    return args, kwargs


def _draw_counts(tr: Tracer, sid, args, kwargs):
    if _arg(args, kwargs, 2, "mode", "exact") == "sampled":
        pairs = _arg(args, kwargs, 0, "p").proto.truth.num_inputs ** 2
        tr.sums["bell.sampled_draws"] += pairs * _arg(args, kwargs, 3,
                                                      "trials")
    return args, kwargs


def _lhv_space(tr: Tracer, sid, args, kwargs):
    t, s = _arg(args, kwargs, 0, "t"), _arg(args, kwargs, 1, "s")
    size, counts = t.num_inputs, s.port_counts
    if len(counts) == 1:
        per_x, per_y = counts[0], 1
    elif len(counts) == 3:
        n1, n2, n3 = counts
        per_x, per_y = n1 * n3 ** (n1 * n2), n2 ** n1
    else:
        return args, kwargs
    space = per_x ** size * per_y ** size
    tr.maxes["bell.lhv_space"] = max(tr.maxes["bell.lhv_space"], space)
    return args, kwargs


def _lhv_skipped(tr: Tracer, args, kwargs, outcome):
    if type(outcome).__name__ == "CapExceededError" \
            and _arg(args, kwargs, 1, "method", "exact") == "exact":
        tr.sums["bell.lhv_skipped"] += 1


def _enumerated(tr: Tracer, size: int) -> None:
    tr.sums["classicalcc.strategies"] += size
    tr.maxes["classicalcc.enum"] = max(tr.maxes["classicalcc.enum"], size)


def _query(tr: Tracer, args, kwargs, method: str) -> None:
    key = (_truth_key(_arg(args, kwargs, 0, "t")),
           _arg(args, kwargs, 1, "bits"), method)
    tr.sums["classicalcc.queries"] += 1
    if key in tr.seen["query"]:
        tr.sums["classicalcc.repeat_queries"] += 1
    tr.seen["query"].add(key)


def _one_way_counts(tr: Tracer, sid, args, kwargs):
    _query(tr, args, kwargs, "one_way")
    nx = _arg(args, kwargs, 0, "t").num_inputs
    m = 2 ** _arg(args, kwargs, 1, "bits")
    if m < nx:
        _enumerated(tr, m ** nx)
    return args, kwargs


def _tree_counts(tr: Tracer, sid, args, kwargs):
    _query(tr, args, kwargs, "tree")
    return args, kwargs


def _split_counts(tr: Tracer, sid, args, kwargs):
    nx = _arg(args, kwargs, 0, "t").num_inputs
    m1, m2, m3 = (2 ** _arg(args, kwargs, i, c)
                  for i, c in ((1, "c1"), (2, "c2"), (3, "c3")))
    _enumerated(tr, m1 ** nx * m2 ** (nx * m1) * m3 ** (nx * m2))
    return args, kwargs


def _report_bytes(tr: Tracer, args, kwargs, outcome):
    if isinstance(outcome, str):
        tr.sums["serialize.report_bytes"] += len(outcome.encode("utf-8"))


def _thread_items(tr: Tracer, sid, args, kwargs):
    """Count the items and run each in a worker whose spans name this
    thread_map call as their parent."""
    fn = _arg(args, kwargs, 0, "fn")
    items = list(_arg(args, kwargs, 1, "items"))
    tr.sums["threads.thread_map.items"] += len(items)

    def under_parent(x):
        stack = tr.stack()
        if stack:
            return fn(x)
        stack.append(sid)
        try:
            return fn(x)
        finally:
            stack.pop()
    return (under_parent, items), {}


HOOKS = {
    "teleport.build_pbt_povm": (_povm_counts, None),
    "bell.generate_correlations": (_draw_counts, None),
    "bell.lhv_exact": (_lhv_space, None),
    "bell.lhv_bound": (None, _lhv_skipped),
    "classicalcc.best_success_one_way": (_one_way_counts, None),
    "classicalcc.best_success_tree": (_tree_counts, None),
    "classicalcc.tree_split_value": (_split_counts, None),
    "serialize.dumps_canonical": (None, _report_bytes),
    "threads.thread_map": (_thread_items, None),
}


def install(tracer: Tracer) -> None:
    """Put a shim in place of every function in SHIMS that exists."""
    import importlib
    for module_name, attr, name in SHIMS:
        module = importlib.import_module(module_name)
        owner, _, method = attr.rpartition(".")
        target = getattr(module, owner) if owner else module
        original = getattr(target, method, None)
        if original is None:
            continue
        shim = tracer.wrap(name, original, *HOOKS.get(name, (None, None)))
        setattr(target, method, shim)
        if owner:
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "bellforge" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, shim)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import bellforge.cli
    tracer = Tracer()
    install(tracer)
    try:
        return bellforge.cli.main(argv)
    finally:
        import bellforge.bell
        import bellforge.classicalcc
        tracer.dump(spans_path, {
            "LHV_CAP": getattr(bellforge.bell, "LHV_CAP", 10 ** 7),
            "ENUM_CAP": getattr(bellforge.classicalcc, "ENUM_CAP", 10 ** 8)})


if __name__ == "__main__":
    sys.exit(main())

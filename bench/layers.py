"""Per-layer metrics from the span dumps of one traced pass.

Layers are bellforge's modules (plus the numpy kernels under them).  For a
span name X:
  X.calls   number of spans
  X.self_s  span time minus the part of it that child spans cover
  X.s       span time including children (numpy kernels only)
Work counts come from the tracer's argument hooks (traced.py).  A layer a
workload does not reach reports 0 calls and 0 s.
"""

from __future__ import annotations

from collections import defaultdict

from workloads import JOB_NAMES

# (span name, the statistics reported for it)
SPAN_METRICS = (
    ("cli.cmd", ("self_s",)),
    ("teleport.build_pbt_povm", ("calls", "self_s")),
    ("teleport.entanglement_fidelity", ("calls", "self_s")),
    ("teleport.branch_tensors", ("self_s",)),
    ("states.Povm", ("calls", "self_s")),
    ("states.psd_sqrt", ("calls", "self_s")),
    ("states.MixedState", ("calls", "self_s")),
    ("numpy.eigh", ("calls", "s")),
    ("numpy.eigvalsh", ("calls", "s")),
    ("numpy.einsum", ("calls", "s")),
    ("bell.generate_correlations", ("calls", "self_s")),
    ("bell.branch_kraus", ("calls", "self_s")),
    ("bell.chain_terminal", ("calls", "self_s")),
    ("bell.lhv_bound", ("calls", "self_s")),
    ("bell.lhv_exact", ("calls", "self_s")),
    ("bell.nonlinear_bell_check", ("calls", "self_s")),
    ("classicalcc.best_success_one_way", ("calls", "self_s")),
    ("classicalcc.best_success_tree", ("calls", "self_s")),
    ("classicalcc.tree_split_value", ("calls", "self_s")),
    ("classicalcc.distributional_cc", ("calls", "self_s")),
    ("transforms.to_single_qubit_rounds", ("calls", "self_s")),
    ("transforms.to_memoryless", ("calls", "self_s")),
    ("protocols.success_probability", ("self_s",)),
    ("protocols.run_exact", ("calls",)),
    ("serialize.load_protocol", ("self_s",)),
    ("serialize.dumps_canonical", ("self_s",)),
    ("remoteprep.rsp_povm", ("calls",)),
    ("threads.thread_map", ("calls",)),
)
UNITS = {"calls": "count", "self_s": "s", "s": "s"}


def _covered(children: list[tuple[float, float]], start: float,
             end: float) -> float:
    """Length of the union of child intervals inside [start, end]."""
    total, reach = 0.0, start
    for a, b in sorted(children):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def span_stats(spans: list) -> dict[str, dict[str, float]]:
    """calls, inclusive seconds and self seconds per span name."""
    children = defaultdict(list)
    for sid, name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for sid, name, start, end, parent in spans:
        st = stats[name]
        st["calls"] += 1
        st["s"] += end - start
        st["self_s"] += end - start - _covered(children[sid], start, end)
    return stats


def layer_metrics(dumps: dict[str, dict], plain_walls: dict[str, float],
                  traced_walls: dict[str, float]) -> dict:
    """Metric name -> (value, unit) over all jobs of one traced pass."""
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    sums: dict[str, float] = defaultdict(float)
    maxes: dict[str, float] = defaultdict(float)
    caps = {"LHV_CAP": 10 ** 7, "ENUM_CAP": 10 ** 8}
    for dump in dumps.values():
        for name, st in span_stats(dump["spans"]).items():
            for k, v in st.items():
                stats[name][k] += v
        for k, v in dump["sums"].items():
            sums[k] += v
        for k, v in dump["maxes"].items():
            maxes[k] = max(maxes[k], v)
        caps.update(dump["caps"])

    out = {}
    for job in JOB_NAMES:
        out[f"cli.job.{job}.wall_s"] = (plain_walls.get(job, 0.0), "s")
    for name, kinds in SPAN_METRICS:
        for kind in kinds:
            out[f"{name}.{kind}"] = (stats[name][kind], UNITS[kind])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    povm_calls = stats["teleport.build_pbt_povm"]["calls"]
    enum_s = stats["classicalcc.best_success_one_way"]["s"] \
        + stats["classicalcc.tree_split_value"]["s"]
    out.update({
        "teleport.build_pbt_povm.rebuild_frac": (ratio(
            sums["teleport.build_pbt_povm.rebuilds"], povm_calls), "frac"),
        "teleport.dense_dim3": (sums["teleport.dense_dim3"], "count"),
        "bell.lhv_space_frac": (
            maxes["bell.lhv_space"] / caps["LHV_CAP"], "frac"),
        "bell.lhv_skipped": (sums["bell.lhv_skipped"], "count"),
        "bell.sampled_draws": (sums["bell.sampled_draws"], "count"),
        "classicalcc.strategies": (sums["classicalcc.strategies"], "count"),
        "classicalcc.strategies_per_s": (
            ratio(sums["classicalcc.strategies"], enum_s), "1/s"),
        "classicalcc.repeat_query_frac": (ratio(
            sums["classicalcc.repeat_queries"],
            sums["classicalcc.queries"]), "frac"),
        "classicalcc.enum_frac": (
            maxes["classicalcc.enum"] / caps["ENUM_CAP"], "frac"),
        "serialize.report_bytes": (sums["serialize.report_bytes"], "B"),
        "threads.thread_map.items": (sums["threads.thread_map.items"],
                                     "count"),
        "trace.overhead_frac": (ratio(sum(traced_walls.values()),
                                      sum(plain_walls.values())) - 1.0,
                                "frac"),
    })
    return out

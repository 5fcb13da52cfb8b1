"""Batch driver: load configs and protocols, run pipelines, emit reports.

Four subcommands cover the library surface:

  pbt-bench     port-teleportation fidelity series with its 1 - d^2/N floor
  bell-certify  conversion, teleported correlations, and certification
  oneway        flag-route statistics, inequality checks, optional box sweep
  cc            classical-communication tables plus amplification rows

Reports are canonical JSON (sorted keys, shortest-roundtrip floats), so a
fixed config and seed produce byte-identical output at any worker count
(BELLFORGE_THREADS), on one numpy/BLAS build with one BLAS thread count;
another build or BLAS thread count may move round-off-sized entries.
`python -m bellforge` lets idle OpenBLAS workers sleep instead of spin
(see `__main__`); a user's OPENBLAS_THREAD_TIMEOUT wins, and no number
depends on it.  Wall-clock timing goes to stderr only, never into
the report.  Exit codes: 0 success, 1 usage or config error, 2 resource
cap exceeded, 3 invariant failure.

Each command imports the library modules it calls inside its own body, so
a process loads only those: beyond `serialize`, `_threads` and `states`,
pbt-bench loads `teleport`; cc loads `protocols` and `classicalcc`; oneway
loads those two and `bell`, which brings `remoteprep` and `teleport`; and
bell-certify loads all of these plus `transforms`.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import os
import sys
import time
from typing import TYPE_CHECKING, Any

import numpy as np

from . import __version__
from ._threads import thread_count
from .serialize import (
    SCHEMA_VERSION, atomic_write_text, dumps_canonical, is_json_int,
    is_json_number, load_protocol, truth_from_dict,
)
from .states import CapExceededError, InvariantError

if TYPE_CHECKING:
    from .classicalcc import BudgetOracle
    from .protocols import CommProtocol, TruthTable


class UsageError(Exception):
    """Bad flags or config; reported on stderr with exit code 1."""


# Config keys: these, plus the keys of the command's defaults.
_COMMON_KEYS = {"command", "out", "format"}
_DEFAULTS: dict[str, dict[str, Any]] = {
    "pbt-bench": {"d": 2, "ports": [1, 2, 3, 4, 5, 6, 7, 8]},
    "bell-certify": {"protocol": "builtin:qrac", "schedule": None,
                     "mode": "exact", "trials": None, "seed": None},
    "oneway": {"protocol": "builtin:qrac",
               "deltas": [0.5, 0.25, 0.0625, 0.00390625],
               "k": 1.0, "sweep_file": None},
    "cc": {"function": "qrac", "bits": None, "method": "one_way"},
}
# Samples per input pair of a sampled run whose config sets no trials.
_SAMPLED_TRIALS = 10000
_PUMPING_EPSILONS = (0.1, 0.125, 1.0 / 6.0)
# Most nonlinear checks one `oneway` box sweep may run (boxes x deltas).
# The sweep evaluates all boxes as arrays, one pass per delta: on a 2-core
# x86 host, 65,536 deterministic boxes (an 8-input table) x 16 deltas =
# 2^20 checks take 0.06-0.1 s once the budgets are searched, where one
# `nonlinear_bell_check` per check takes 18 s.  The shipped sweep runs
# 256 x 4.
SWEEP_CHECK_CAP = 2 ** 20


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bellforge", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"bellforge {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, help_text in (
            ("pbt-bench", "fidelity-vs-ports series with the exact floor"),
            ("bell-certify", "run the certification pipeline on a protocol"),
            ("oneway", "flag-route statistics and inequality checks"),
            ("cc", "classical-communication table and amplification rows")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file; flags override its values")
        if name == "bell-certify":
            p.add_argument("--seed", type=int, metavar="U64",
                           help="RNG seed (mandatory for sampled mode)")
            p.add_argument("--mode", choices=("exact", "sampled"),
                           help="correlation mode")
            p.add_argument("--trials", type=int, metavar="N",
                           help="samples per input pair")
        p.add_argument("--out", metavar="PATH",
                       help="report destination (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"),
                       help="report format (default: json)")
    return parser


def _load_config(args: argparse.Namespace) -> dict[str, Any]:
    cmd = args.command
    cfg: dict[str, Any] = {"command": cmd, "out": None, "format": "json"}
    cfg.update(copy.deepcopy(_DEFAULTS[cmd]))
    allowed = _COMMON_KEYS | set(_DEFAULTS[cmd])
    if args.config is not None:
        if not os.path.isfile(args.config):
            raise UsageError(f"config file not found: {args.config}")
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except ValueError as e:  # also an integer past Python's digits
                raise UsageError(f"config is not valid JSON: {e}")
        if not isinstance(loaded, dict):
            raise UsageError("config must be a JSON object")
        for key, value in loaded.items():
            if key not in allowed:
                raise UsageError(f"unknown config key {key!r} for {cmd}")
            if key == "command" and value != cmd:
                raise UsageError(f"config names command {value!r}, "
                                 f"but {cmd} was invoked")
            cfg[key] = value
    for flag in ("seed", "mode", "trials", "out", "format"):
        value = getattr(args, flag, None)
        if value is not None:
            cfg[flag] = value
    return cfg


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


def _require_delta(d: Any, what: str) -> None:
    _require(is_json_number(d) and 0.0 < d < 1.0,
             f"{what} {d!r} must lie strictly between 0 and 1")
    _require(math.isfinite(1.0 / d),
             f"{what} {d!r} is so small that 1/delta overflows")


def _validate_config(cfg: dict[str, Any]) -> None:
    cmd = cfg["command"]
    _require(cfg["format"] in ("json", "csv"),
             f"format must be json or csv, got {cfg['format']!r}")
    if cfg["out"] is not None:
        _require(isinstance(cfg["out"], str), "out must be a path string")
        parent = os.path.dirname(os.path.abspath(cfg["out"]))
        _require(os.path.isdir(parent),
                 f"output directory does not exist: {parent}")
        # The report replaces `out` by a rename, which no directory takes.
        _require(os.path.basename(cfg["out"]) not in ("", ".", "..")
                 and not os.path.isdir(cfg["out"]),
                 f"out must name a file, not a directory: {cfg['out']}")
    if cmd == "pbt-bench":
        _require(is_json_int(cfg["d"]) and cfg["d"] >= 2,
                 f"d must be an integer >= 2, got {cfg['d']!r}")
        ports = cfg["ports"]
        _require(isinstance(ports, list) and len(ports) > 0,
                 "ports must be a non-empty list of integers")
        _require(all(is_json_int(n) and n >= 1 for n in ports),
                 "every port count must be an integer >= 1")
    elif cmd == "bell-certify":
        _validate_protocol_ref(cfg["protocol"])
        sched = cfg["schedule"]
        if sched is not None:
            _require(isinstance(sched, list) and len(sched) > 0
                     and all(is_json_int(n) and n >= 1 for n in sched),
                     "schedule must be a non-empty list of integers >= 1")
        _require(cfg["mode"] in ("exact", "sampled"),
                 f"mode must be exact or sampled, got {cfg['mode']!r}")
        if cfg["trials"] is not None:
            _require(is_json_int(cfg["trials"]) and cfg["trials"] >= 1,
                     f"trials must be an integer >= 1, got {cfg['trials']!r}")
        if cfg["seed"] is not None:
            _require(is_json_int(cfg["seed"]) and 0 <= cfg["seed"] < 2 ** 64,
                     f"seed must be an integer in [0, 2^64), got "
                     f"{cfg['seed']!r}")
        _require(cfg["mode"] == "exact" or cfg["seed"] is not None,
                 "sampled mode requires --seed")
    elif cmd == "oneway":
        _validate_protocol_ref(cfg["protocol"])
        deltas = cfg["deltas"]
        _require(isinstance(deltas, list) and len(deltas) > 0,
                 "deltas must be a non-empty list")
        for d in deltas:
            _require_delta(d, "delta")
        _require(is_json_number(cfg["k"]) and cfg["k"] >= 1,
                 f"k must be a number >= 1, got {cfg['k']!r}")
        if cfg["sweep_file"] is not None:
            # isfile would take an integer as a file descriptor.
            _require(isinstance(cfg["sweep_file"], str)
                     and os.path.isfile(cfg["sweep_file"]),
                     f"sweep file not found: {cfg['sweep_file']}")
    elif cmd == "cc":
        fn = cfg["function"]
        _require(isinstance(fn, str), "function must be a string")
        if fn not in ("qrac", "eq1"):
            _require(os.path.isfile(fn),
                     f"function must be qrac, eq1, or a truth-table file; "
                     f"no file at {fn!r}")
        if cfg["bits"] is not None:
            _require(is_json_int(cfg["bits"]) and cfg["bits"] >= 0,
                     f"bits must be an integer >= 0, got {cfg['bits']!r}")
        _require(cfg["method"] in ("one_way", "tree"),
                 f"method must be one_way or tree, got {cfg['method']!r}")


def _validate_protocol_ref(ref: Any) -> None:
    _require(isinstance(ref, str), "protocol must be a string")
    if ref.startswith("builtin:"):
        _require(ref in ("builtin:qrac", "builtin:const1"),
                 f"unknown builtin protocol {ref!r}")
    else:
        _require(os.path.isfile(ref), f"protocol file not found: {ref}")


def _const_protocol() -> CommProtocol:
    """One-round protocol computing the constant-1 function: the message
    is ignored and Bob's observable always fires on outcome 1."""
    from .protocols import CommProtocol, TruthTable
    from .states import Povm
    truth = TruthTable(n=1, f=np.ones((2, 2), dtype=int),
                       mu=np.full((2, 2), 0.25))
    eye = np.eye(2, dtype=np.complex128)
    obs = Povm([np.zeros((2, 2), dtype=np.complex128), eye])
    return CommProtocol(
        truth=truth, rounds=1, a0_dim=1, b0_dim=1,
        m_out_dims=(2,), m_back_dims=(), a_dims=(1,), b_dims=(),
        anc_a_dims=(2,), anc_b_dims=(),
        alice_ops=({0: eye, 1: eye},), bob_ops=(),
        observables={0: obs, 1: obs})


def _resolve_protocol(ref: str) -> CommProtocol:
    from .protocols import builtin_qrac
    if ref == "builtin:qrac":
        return builtin_qrac()
    if ref == "builtin:const1":
        return _const_protocol()
    try:
        return load_protocol(ref)
    except (ValueError, KeyError, TypeError) as e:
        raise UsageError(f"cannot load protocol {ref!r}: {e}")


def _resolve_truth(ref: str) -> TruthTable:
    from .protocols import TruthTable, builtin_qrac
    if ref == "qrac":
        return builtin_qrac().truth
    if ref == "eq1":
        return TruthTable(n=1, f=np.eye(2, dtype=int),
                          mu=np.full((2, 2), 0.25))
    try:
        with open(ref, "r", encoding="utf-8") as fh:
            return truth_from_dict(json.load(fh))
    except (ValueError, KeyError, TypeError) as e:
        raise UsageError(f"cannot load truth table {ref!r}: {e}")


def cmd_pbt_bench(cfg: dict[str, Any],
                  warnings: list[str]) -> tuple[dict[str, Any], int]:
    from .teleport import build_pbt_povm, entanglement_fidelity
    d = cfg["d"]
    rows = []
    all_hold = True
    for n in cfg["ports"]:
        fid = float(entanglement_fidelity(n, d))
        bound = 1.0 - d * d / n
        vacuous = bound <= 0.0
        holds = vacuous or fid >= bound - 1e-12
        all_hold = all_hold and holds
        meas = build_pbt_povm(n, d)
        rows.append({
            "ports": n, "dimension": d,
            "fidelity": fid, "method": "exact",
            "bound": bound, "bound_vacuous": vacuous, "bound_holds": holds,
            "povm_completeness_dev": meas.completeness_dev,
            "povm_min_eigenvalue": meas.min_eigenvalue,
        })
    results = {"d": d, "rows": rows, "all_bounds_hold": all_hold}
    return results, 0 if all_hold else 3


def cmd_bell_certify(cfg: dict[str, Any],
                     warnings: list[str]) -> tuple[dict[str, Any], int]:
    from .bell import (
        PortSchedule, bell_value, generate_correlations, lhv_bound,
    )
    from .classicalcc import BudgetOracle
    from .transforms import to_memoryless, to_single_qubit_rounds
    source = _resolve_protocol(cfg["protocol"])
    try:
        ml = to_memoryless(to_single_qubit_rounds(source))
    except ValueError as e:  # a register dimension that is not 2^k
        raise UsageError(str(e))
    levels = len(ml.proto.legs)
    counts = cfg["schedule"]
    if counts is None:
        counts = [2] * levels
        cfg["schedule"] = counts
    if len(counts) != levels:
        raise UsageError(f"schedule needs {levels} entries for this "
                         f"protocol, got {len(counts)}")
    schedule = PortSchedule.for_protocol(ml, tuple(counts))

    mode, trials, seed = cfg["mode"], cfg["trials"], cfg["seed"]
    if mode == "sampled" and trials is None:
        trials = _SAMPLED_TRIALS
        cfg["trials"] = trials

    table = generate_correlations(ml, schedule, mode=mode, trials=trials,
                                  seed=seed)
    exact_info: dict[str, Any] | None = None
    try:
        exact_info = {"delta": lhv_bound(source.truth, schedule,
                                         method="exact"),
                      "method": "exact"}
    except CapExceededError as e:
        warnings.append(f"exact local bound skipped: {e}")
    cc_delta = lhv_bound(source.truth, schedule, method="cc_derived")
    cc_info = {"delta": cc_delta, "method": "cc_derived"}
    used = exact_info if exact_info is not None else cc_info
    report = bell_value(table, used["delta"], used["method"])

    need = BudgetOracle(source.truth, "tree")(report.bell_value)
    budget = schedule.budget_bits
    violated = report.shifted_value > used["delta"] + 1e-9
    if violated:
        explanation = (f"shifted value {report.shifted_value:.6g} exceeds "
                       f"the classical bound {used['delta']:.6g}")
    else:
        explanation = (f"budget_bits={budget:g} >= classical_need={need:g}: "
                       f"the announced port indices already fund a "
                       f"classical strategy matching the measured success "
                       f"(desk-scale limitation)")
    results = {
        "pipeline": {
            "source_rounds": source.rounds,
            "memoryless_rounds": ml.proto.rounds,
            "source_qubits": ml.source_qubits,
            "qubit_cost": ml.qubit_cost,
            "cost_bound": ml.source_qubits ** 2 + 2 * ml.source_qubits,
            "legs": list(schedule.port_dims),
            "port_counts": list(schedule.port_counts),
        },
        "bell": {"value": report.bell_value,
                 "shifted": report.shifted_value,
                 "method": mode, "seed": seed,
                 "trials": trials if mode == "sampled" else None},
        "classical": {"exact": exact_info, "cc_derived": cc_info,
                      "used": used["method"]},
        "ratio": report.ratio,
        "budget": {"budget_bits": budget, "classical_need_bits": need},
        "verdict": "VIOLATED" if violated else "NOT-VIOLATED",
        "explanation": explanation,
        "bell_report": dataclasses.asdict(report),
    }
    return results, 0


def _sweep_boxes(size: int, boxes: Any, n_deltas: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """A sweep document's boxes as 0/1 flag and answer arrays, one row per
    box, for `size` inputs per party.  Refused with CapExceededError when
    boxes x `n_deltas` exceeds SWEEP_CHECK_CAP, and then with UsageError
    when `boxes` or any one box is malformed."""
    if boxes == "deterministic":
        count = 4 ** size
    elif isinstance(boxes, list):
        count = len(boxes)
    else:
        raise UsageError("sweep file needs boxes: \"deterministic\" or a "
                         "list of {flag, answer} objects")
    checks = count * n_deltas
    if checks > SWEEP_CHECK_CAP:
        raise CapExceededError(
            f"sweep of {count} boxes x {n_deltas} deltas = "
            f"{checks} checks exceeds {SWEEP_CHECK_CAP}")
    if boxes == "deterministic":
        from .bell import _deterministic_boxes
        return _deterministic_boxes(size)
    for i, box in enumerate(boxes):
        box = box if isinstance(box, dict) else {}
        flag, answer = box.get("flag"), box.get("answer")
        if not (isinstance(flag, list) and isinstance(answer, list)
                and len(flag) == size and len(answer) == size
                and all(is_json_int(v) and v in (0, 1) for v in flag + answer)):
            raise UsageError(f"sweep box {i} needs 0/1 lists of length "
                             f"{size} for flag and answer")
    rows = np.array([box["flag"] + box["answer"] for box in boxes],
                    dtype=bool).reshape(len(boxes), 2 * size)
    return rows[:, :size], rows[:, size:]


def _load_sweep(t: TruthTable, path: str, deltas: list[float]
                ) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Read and check a sweep file before any work: its boxes as flag and
    answer arrays (`_sweep_boxes`), and its deltas."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:
            raise UsageError(f"sweep file is not valid JSON: {e}")
    if not isinstance(doc, dict) \
            or doc.get("format") != "bellforge-oneway-sweep":
        raise UsageError("sweep file is missing its format tag")
    sweep_deltas = doc.get("deltas", deltas)
    _require(isinstance(sweep_deltas, list) and len(sweep_deltas) > 0,
             "sweep deltas must be a non-empty list")
    for d in sweep_deltas:
        _require_delta(d, "sweep delta")
    flags, answers = _sweep_boxes(t.num_inputs, doc.get("boxes"),
                                  len(sweep_deltas))
    return flags, answers, sweep_deltas


def _run_sweep(t: TruthTable, flags: np.ndarray, answers: np.ndarray,
               sweep_deltas: list[float],
               oracle: BudgetOracle) -> dict[str, Any]:
    from .bell import _nonlinear_box_sweep
    failures, worst = _nonlinear_box_sweep(t, flags, answers, sweep_deltas,
                                           oracle)
    return {"boxes": len(flags), "deltas": [float(d) for d in sweep_deltas],
            "failures": failures, "all_hold": failures == 0,
            "worst_margin_bits": worst, "method": "cc_derived"}


def cmd_oneway(cfg: dict[str, Any],
               warnings: list[str]) -> tuple[dict[str, Any], int]:
    from .bell import (
        nonlinear_bell_check, observation_bound, one_way_correlations,
        one_way_linear_bell,
    )
    from .classicalcc import BudgetOracle
    from .protocols import success_probability
    source = _resolve_protocol(cfg["protocol"])
    sweep = None
    if cfg["sweep_file"] is not None:
        sweep = _load_sweep(source.truth, cfg["sweep_file"], cfg["deltas"])
    try:
        table, stats = one_way_correlations(source)
    except ValueError as e:
        raise UsageError(str(e))
    # Every check, the observation bound, the merged linear test and the
    # sweep ask one table.
    oracle = BudgetOracle(source.truth)
    checks = []
    for delta in cfg["deltas"]:
        chk = nonlinear_bell_check(stats, float(delta), oracle)
        row = dataclasses.asdict(chk)
        row["method"] = "cc_derived"
        checks.append(row)
    obs = observation_bound(success_probability(source), source.truth,
                            oracle)
    try:
        merged = one_way_linear_bell(table, stats, k=float(cfg["k"]),
                                     oracle=oracle)
    except ValueError as e:  # k / p_a past the float range
        raise UsageError(str(e))
    results = {
        "p_a": {"value": stats.p_a, "method": "exact"},
        "p_b": {"value": stats.p_b, "method": "exact"},
        "checks": checks,
        "observation_qubit_bound": {"value": obs, "method": "cc_derived"},
        "merged_linear": dataclasses.asdict(merged),
    }
    if sweep is not None:
        results["sweep"] = _run_sweep(source.truth, *sweep, oracle)
    return results, 0


def cmd_cc(cfg: dict[str, Any],
           warnings: list[str]) -> tuple[dict[str, Any], int]:
    from .classicalcc import (
        BudgetOracle, _table_key, chernoff_repeats, pumping_bound,
    )
    t = _resolve_truth(cfg["function"])
    bits = cfg["bits"] if cfg["bits"] is not None else t.n
    method = cfg["method"]
    # The table rows and the targets share one memo, so each budget is
    # searched once.  n bits always reach success 1, so the oracle's
    # default range answers every target a longer table would.
    need = BudgetOracle(t, method)
    rows = [{"bits": c, "success": v, "method": "cc_derived"}
            for c, v in need.table(bits)]
    two_thirds = need(2.0 / 3.0)
    pump_rows = []
    for eps in _PUMPING_EPSILONS:
        c_eps = need(0.5 + eps)
        bound = pumping_bound(c_eps, eps) if math.isfinite(c_eps) \
            else math.inf
        pump_rows.append({
            "epsilon": eps,
            "bits_at_target": c_eps,
            "bits_at_two_thirds": two_thirds,
            "pumped_bound": bound,
            "holds": two_thirds <= bound + 1e-12,
            "method": "cc_derived",
        })
    results = {
        "function": cfg["function"],
        "table_key": _table_key(t),
        "search_method": method,
        "table": rows,
        "chernoff": {"epsilon": 1.0 / 6.0,
                     "repeats": chernoff_repeats(1.0 / 6.0),
                     "method": "exact"},
        "pumping": pump_rows,
    }
    return results, 0


_COMMANDS = {
    "pbt-bench": cmd_pbt_bench,
    "bell-certify": cmd_bell_certify,
    "oneway": cmd_oneway,
    "cc": cmd_cc,
}


def _csv_cell(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isinf(v):
            return "Infinity" if v > 0 else "-Infinity"
        return repr(v)
    return str(v)


def _csv_text(header: list[str], rows: list[list[Any]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _to_csv(command: str, results: dict[str, Any]) -> str:
    if command == "pbt-bench":
        cols = ["ports", "dimension", "fidelity", "bound", "bound_vacuous",
                "bound_holds", "povm_completeness_dev",
                "povm_min_eigenvalue"]
        return _csv_text(cols, [[r[c] for c in cols]
                                for r in results["rows"]])
    if command == "bell-certify":
        rep = results["bell_report"]
        cols = ["bell_value", "shifted_value", "classical_delta",
                "classical_method", "ratio", "budget_bits",
                "classical_need_bits", "verdict"]
        row = [rep["bell_value"], rep["shifted_value"],
               rep["classical_delta"], rep["classical_method"],
               results["ratio"], results["budget"]["budget_bits"],
               results["budget"]["classical_need_bits"],
               results["verdict"]]
        return _csv_text(cols, [row])
    if command == "oneway":
        cols = ["delta", "target", "lhs_bits", "rhs_bits", "holds",
                "heuristic_lhs", "heuristic_rhs", "heuristic_violated",
                "pumped_rhs", "pumped_holds"]
        return _csv_text(cols, [[r[c] for c in cols]
                                for r in results["checks"]])
    if command == "cc":
        return _csv_text(["bits", "success"],
                         [[r["bits"], r["success"]]
                          for r in results["table"]])
    raise ValueError(f"no CSV emitter for {command}")


def _config_echo(cfg: dict[str, Any]) -> dict[str, Any]:
    """Computation-relevant config only: the report destination and format
    do not alter any result, so they stay out of the canonical bytes."""
    return {k: v for k, v in cfg.items() if k not in ("out", "format")}


def _emit(cfg: dict[str, Any], text: str) -> str:
    if cfg["out"] is not None:
        atomic_write_text(cfg["out"], text)
        return cfg["out"]
    sys.stdout.write(text)
    return "stdout"


def _emit_error(cfg: dict[str, Any], code: str, reason: str) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "library_version": __version__,
           "command": cfg["command"], "config": _config_echo(cfg),
           "error": {"code": code, "reason": reason}}
    _emit(cfg, dumps_canonical(doc))


def main(argv: list[str] | None = None) -> int:
    start = time.monotonic()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required (pbt-bench, "
                             "bell-certify, oneway, cc)")
        cfg = _load_config(args)
        _validate_config(cfg)
        try:
            thread_count()
        except ValueError as e:
            raise UsageError(str(e))
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    warnings: list[str] = []
    try:
        results, status = _COMMANDS[cfg["command"]](cfg, warnings)
        report = {
            "schema_version": SCHEMA_VERSION,
            "library_version": __version__,
            "command": cfg["command"],
            "config": _config_echo(cfg),
            "results": results,
            "warnings": warnings,
        }
        if cfg["format"] == "csv":
            text = _to_csv(cfg["command"], results)
        else:
            text = dumps_canonical(report)
        dest = _emit(cfg, text)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CapExceededError as e:
        _emit_error(cfg, "cap_exceeded", str(e))
        print(f"error: resource cap exceeded: {e}", file=sys.stderr)
        return 2
    except InvariantError as e:
        _emit_error(cfg, "invariant_failure", str(e))
        print(f"error: invariant failure: {e}", file=sys.stderr)
        return 3
    elapsed = time.monotonic() - start
    print(f"[{elapsed:.1f}s] {cfg['command']}: report -> {dest}",
          file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())

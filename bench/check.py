"""Correctness checks for the reports the benchmark's jobs write.

Reports are compared on their science fields (the `results` object), never
on bytes: numbers within ATOL, everything else exactly.  Where a reference
exists that does not come from bellforge's own code, the check uses it:

- the port-teleportation (PBT) entanglement fidelity of the pretty-good
  measurement, from the Ishizaka-Hiroshima qubit formula (PRL 101, 240501,
  2008) and, for any d, the Young-diagram sum of Studzinski et al.
  (Sci. Rep. 7, 10871, 2017);
- the qubit step acting as a depolarizing channel with contraction
  (4F - 1)/3, so the 8-port QRAC certification lands at
  1/2 + ((4F - 1)/3) eps;
- classical one-way and interactive success optima, recomputed here by a
  different decomposition than the library's enumeration;
- the shipped QRAC table ((0, 0.5), (1, 0.75), (2, 1.0)).

Jobs whose inputs do not depend on the benchmark seed are also compared
with stored reference results; seeded jobs are compared with them at the
default seed only.  Every check returns a list of problems; empty means
the report passed.
"""

from __future__ import annotations

import json
import math
import os
from functools import lru_cache
from itertools import product

import numpy as np

ATOL = 1e-9  # the library's ATOL_TABLE
REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
QRAC_SUCCESS = math.cos(math.pi / 8) ** 2
QRAC_TABLE = ((0, 0.5), (1, 0.75), (2, 1.0))
POVM_COMPLETENESS_TOL = 1e-9
POVM_POSITIVITY_TOL = 1e-10
PUMPING_EPSILONS = (0.1, 0.125, 1.0 / 6.0)
CEIL_GUARD = 1e-9
ONEWAY_DELTAS = [0.5, 0.25, 0.0625, 0.00390625]  # the CLI's default


# ---------------------------------------------------------------- PBT


def pbt_fidelity_qubit(n: int) -> float:
    """Ishizaka-Hiroshima closed form for d=2, n ports."""
    total = 0.0
    for k in range(n + 1):
        term = (n - 2 * k - 1) / math.sqrt(k + 1) \
            + (n - 2 * k + 1) / math.sqrt(n - k + 1)
        total += math.comb(n, k) * term * term
    return total / 2 ** (n + 3)


def _partitions(n: int, rows: int, cap: int | None = None):
    """Partitions of n with at most `rows` parts, as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(n, cap or n), 0, -1):
        for rest in _partitions(n - first, rows - 1, first):
            yield (first,) + rest


def _hooks(shape: tuple[int, ...]):
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])] \
        if shape else []
    for i, r in enumerate(shape):
        for j in range(r):
            yield i, j, (r - j) + (cols[j] - i) - 1


def _log_dims(shape: tuple[int, ...], d: int) -> float:
    """log(d_mu * m_mu): symmetric-group irrep dimension (hook length)
    times unitary-group irrep dimension (hook content)."""
    n = sum(shape)
    log = math.lgamma(n + 1)
    for i, j, h in _hooks(shape):
        log += math.log(d + j - i) - 2.0 * math.log(h)
    return log


def pbt_fidelity(n: int, d: int) -> float:
    """F = d^-(N+2) sum_{alpha |- N-1} (sum_{mu = alpha + box}
    sqrt(d_mu m_mu))^2, Young diagrams with at most d rows."""
    total = 0.0
    for alpha in _partitions(n - 1, d):
        inner = 0.0
        for row in range(min(len(alpha) + 1, d)):
            mu = list(alpha) + [0]
            mu[row] += 1
            if row and mu[row] > mu[row - 1]:
                continue
            inner += math.exp(0.5 * _log_dims(tuple(v for v in mu if v), d))
        total += inner * inner
    return total / d ** (n + 2)


# ---------------------------------------------------------------- classical


def _weights(f: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """W[b, x, y] = mu(x, y) [f(x, y) = b]."""
    return np.stack([np.where(f == b, mu, 0.0) for b in (0, 1)])


def _map_scores(w: np.ndarray, alphabet: int) -> np.ndarray:
    """G[m, y]: success on column y of every message map m: x -> alphabet,
    with Bob's decision greedy per (message, y)."""
    nx = w.shape[1]
    maps = np.array(list(product(range(alphabet), repeat=nx)))
    hot = (maps[:, :, None] == np.arange(alphabet)).astype(float)
    per = np.einsum("mxk,bxy->mbky", hot, w)          # (maps, b, k, y)
    return per.max(axis=1).sum(axis=1)


def one_way_values(f: np.ndarray, mu: np.ndarray, max_bits: int) -> list:
    """Best one-way success for 0..max_bits bits."""
    w = _weights(np.asarray(f), np.asarray(mu, dtype=float))
    nx = w.shape[1]
    out = []
    for bits in range(max_bits + 1):
        if 2 ** bits >= nx:
            out.append(1.0)
        else:
            out.append(float(_map_scores(w, 2 ** bits).sum(axis=1).max()))
    return out


def tree_values(f: np.ndarray, mu: np.ndarray, max_bits: int) -> list:
    """Best success over protocols of up to three alternating messages
    with `bits` in total.  Only bits=2 has a genuine interactive split,
    (0, 1, 1): Bob sends r = m2(y), Alice answers m3(x, r).  For a fixed
    m2 the answer maps for r=0 and r=1 act on disjoint column sets, so the
    split value is max over column sets S of B(S) + B(complement), where
    B(S) is the best one-bit one-way success on the columns in S."""
    values = one_way_values(f, mu, max_bits)
    if max_bits >= 2 and values[2] < 1.0 - 1e-15:
        w = _weights(np.asarray(f), np.asarray(mu, dtype=float))
        g = _map_scores(w, 2)                          # (maps, y)
        ny = w.shape[2]
        masks = np.array(list(product((0, 1), repeat=ny)), dtype=float)
        best = (g @ masks.T).max(axis=0)               # B(S) per column set
        split = float(np.max(best + best[::-1]))       # reversed = complement
        values[2] = max(values[2], split)
    return values


def min_bits(values: list, p: float) -> float:
    for c, v in enumerate(values):
        if v >= p - 1e-12:
            return c
    return math.inf


def _qrac_truth() -> tuple[np.ndarray, np.ndarray]:
    """The 2->1 quantum random access code: Alice holds two bits, Bob asks
    for bit y; Bob's second input bit carries no weight."""
    f = np.array([[(x >> (1 - (y & 1))) & 1 for y in range(4)]
                  for x in range(4)])
    mu = np.zeros((4, 4))
    mu[:, :2] = 1.0 / 8.0
    return f, mu


# ---------------------------------------------------------------- compare


def close(a, b, path: str = "results", skip=()) -> list[str]:
    """Problems where `a` and `b` differ: numbers beyond ATOL, other values
    exactly.  Keys named in `skip` are ignored."""
    a = a.item() if isinstance(a, np.generic) else a
    b = b.item() if isinstance(b, np.generic) else b
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None \
            or isinstance(a, str) or isinstance(b, str):
        return [] if a == b else [f"{path}: {a!r} != {b!r}"]
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isinf(a) or math.isinf(b):
            return [] if a == b else [f"{path}: {a!r} != {b!r}"]
        return [] if abs(a - b) <= ATOL else [f"{path}: {a!r} != {b!r}"]
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in sorted(set(a) | set(b)):
            if k in skip:
                continue
            if k not in a or k not in b:
                out.append(f"{path}.{k}: present on one side only")
            else:
                out += close(a[k], b[k], f"{path}.{k}", skip)
        return out
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path}: length {len(a)} != {len(b)}"]
        out = []
        for i, (u, v) in enumerate(zip(a, b)):
            out += close(u, v, f"{path}[{i}]", skip)
        return out
    return [f"{path}: {type(a).__name__} vs {type(b).__name__}"]


def _expect(problems: list, label: str, got, want) -> None:
    problems += close(got, want, label)


@lru_cache(maxsize=None)
def reference(job: str):
    path = os.path.join(REFS, f"{job}.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# Path-valued result fields: they name files in the work directory.
PATH_KEYS = ("function",)


def _check_pbt(res: dict, cfg: dict) -> list[str]:
    p = []
    d = cfg["d"]
    _expect(p, "d", res["d"], d)
    _expect(p, "ports", [r["ports"] for r in res["rows"]], cfg["ports"])
    for r in res["rows"]:
        n = r["ports"]
        tag = f"rows[N={n}]"
        _expect(p, f"{tag}.fidelity", r["fidelity"], pbt_fidelity(n, d))
        if d == 2:
            _expect(p, f"{tag}.fidelity(IH)", r["fidelity"],
                    pbt_fidelity_qubit(n))
        bound = 1.0 - d * d / n
        _expect(p, f"{tag}.bound", r["bound"], bound)
        _expect(p, f"{tag}.bound_vacuous", r["bound_vacuous"], bound <= 0.0)
        _expect(p, f"{tag}.bound_holds", r["bound_holds"],
                bound <= 0.0 or r["fidelity"] >= bound - 1e-12)
        if "povm_completeness_dev" in r \
                and not r["povm_completeness_dev"] <= POVM_COMPLETENESS_TOL:
            p.append(f"{tag}.povm_completeness_dev "
                     f"{r['povm_completeness_dev']} > {POVM_COMPLETENESS_TOL}")
        if "povm_min_eigenvalue" in r \
                and not r["povm_min_eigenvalue"] >= -POVM_POSITIVITY_TOL:
            p.append(f"{tag}.povm_min_eigenvalue "
                     f"{r['povm_min_eigenvalue']} < -{POVM_POSITIVITY_TOL}")
    _expect(p, "all_bounds_hold", res["all_bounds_hold"],
            all(r["bound_holds"] for r in res["rows"]))
    return p


def _check_certify(res: dict, cfg: dict, truth) -> list[str]:
    """Checks any exact or sampled certification of a one-level or
    three-level schedule whose first level can carry Alice's whole input."""
    p = []
    f, mu = truth
    bell = res["bell"]
    value = bell["value"]
    counts = res["pipeline"]["port_counts"]
    if not 0.0 <= value <= 1.0:
        p.append(f"bell.value {value} outside [0, 1]")
    _expect(p, "bell.shifted", bell["shifted"], value - 0.5)
    _expect(p, "bell_report.bell_value", res["bell_report"]["bell_value"],
            value)
    # Announcing x itself through the first level's port index lets a
    # local strategy answer f(x, y) at the leaf: the local value is 1.
    if counts[0] < len(f):
        p.append(f"first level {counts[0]} ports cannot carry {len(f)} "
                 f"inputs; no independent local bound")
    exact = res["classical"]["exact"]
    if exact is not None:
        _expect(p, "classical.exact.delta", exact["delta"], 0.5)
    budget = sum(math.log2(c) for c in counts)
    _expect(p, "budget.budget_bits", res["budget"]["budget_bits"], budget)
    bits = max(math.ceil(budget - CEIL_GUARD), 0)
    tree = tree_values(f, mu, len(f).bit_length() - 1)
    cc_value = tree[min(bits, len(tree) - 1)]
    _expect(p, "classical.cc_derived.delta", res["classical"]["cc_derived"]
            ["delta"], max(cc_value - 0.5, 0.0))
    used = res["classical"][res["classical"]["used"]]["delta"]
    _expect(p, "budget.classical_need_bits",
            res["budget"]["classical_need_bits"], min_bits(tree, value))
    violated = bell["shifted"] > used + 1e-9
    _expect(p, "verdict", res["verdict"],
            "VIOLATED" if violated else "NOT-VIOLATED")
    _expect(p, "ratio", res["ratio"],
            math.inf if used == 0.0 else bell["shifted"] / used)
    _expect(p, "bell.method", bell["method"], cfg["mode"])
    return p


def _check_qrac_certify(res: dict, cfg: dict) -> list[str]:
    p = _check_certify(res, cfg, _qrac_truth())
    n = cfg["schedule"][0]
    fid = pbt_fidelity_qubit(n)
    exact = 0.5 + (4.0 * fid - 1.0) / 3.0 * (QRAC_SUCCESS - 0.5)
    if cfg["mode"] == "exact":
        _expect(p, "bell.value (1/2 + ((4F-1)/3) eps)", res["bell"]["value"],
                exact)
    else:
        # Sum over input pairs of mu * (a binomial mean over `trials`
        # draws): its standard deviation is at most 1/(2 sqrt(trials)).
        tol = 6.0 * 0.5 / math.sqrt(cfg["trials"])
        if abs(res["bell"]["value"] - exact) > tol:
            p.append(f"sampled bell.value {res['bell']['value']} is more "
                     f"than {tol:.2g} from the exact {exact}")
    return p


def _check_nonlinear(row: dict, p_a: float, p_b: float, values: list,
                     tag: str) -> list[str]:
    p = []
    delta = row["delta"]
    target = (1.0 - delta) * p_b + delta / 2.0
    rhs = min_bits(values, target)
    lhs = math.inf if p_a <= 0 else math.ceil(
        math.log2(1.0 / p_a) + math.log2(math.log2(1.0 / delta))
        - CEIL_GUARD) + 1
    c23 = min_bits(values, 2.0 / 3.0)
    pumped = float(c23) if target > 2.0 / 3.0 \
        else max(target - 0.5, 0.0) ** 2 / 3.0 * c23
    heur = math.inf if p_a <= 0 else math.log2(1.0 / p_a)
    want = {"target": target, "lhs_bits": lhs, "rhs_bits": rhs,
            "holds": lhs >= rhs - 1e-12, "heuristic_lhs": heur,
            "heuristic_rhs": min_bits(values, p_b),
            "heuristic_violated": heur < min_bits(values, p_b) - 1e-12,
            "pumped_rhs": pumped, "pumped_holds": lhs >= pumped - 1e-12}
    for k, v in want.items():
        _expect(p, f"{tag}.{k}", row[k], v)
    return p


def _sweep(f, mu, deltas: list, values: list) -> dict:
    """The deterministic-box sweep: every (flag, answer) pair of 0/1 maps
    over inputs, checked at every delta."""
    size = len(f)
    support = [(x, y) for x in range(size) for y in range(size)
               if mu[x, y] > 0]
    count = failures = 0
    worst = math.inf
    for flag in product((0, 1), repeat=size):
        for answer in product((0, 1), repeat=size):
            p_a = sum(mu[x, y] for x, y in support if flag[x])
            hit = sum(mu[x, y] for x, y in support
                      if flag[x] and answer[y] == f[x, y])
            p_b = hit / p_a if p_a > 0 else 0.5
            count += 1
            for delta in deltas:
                target = (1.0 - delta) * p_b + delta / 2.0
                rhs = min_bits(values, target)
                lhs = math.inf if p_a <= 0 else math.ceil(
                    math.log2(1.0 / p_a) + math.log2(math.log2(1.0 / delta))
                    - CEIL_GUARD) + 1
                worst = min(worst, lhs - rhs)
                failures += not lhs >= rhs - 1e-12
    return {"boxes": count, "deltas": [float(d) for d in deltas],
            "failures": failures, "all_hold": failures == 0,
            "worst_margin_bits": worst, "method": "cc_derived"}


def _check_oneway(res: dict, cfg: dict, sweep_doc) -> list[str]:
    p = []
    f, mu = _qrac_truth()
    values = one_way_values(f, mu, 2)
    _expect(p, "qrac one-way table", [[c, v] for c, v in enumerate(values)],
            [list(r) for r in QRAC_TABLE])
    p_a, p_b = res["p_a"]["value"], res["p_b"]["value"]
    _expect(p, "p_a", p_a, 0.5)
    _expect(p, "p_b", p_b, QRAC_SUCCESS)
    _expect(p, "deltas", [r["delta"] for r in res["checks"]], cfg["deltas"])
    for i, row in enumerate(res["checks"]):
        p += _check_nonlinear(row, p_a, p_b, values, f"checks[{i}]")
    best = -math.inf
    for delta in (0.5, 0.25, 1.0 / 16.0, 1.0 / 256.0):
        target = (1.0 - delta) * QRAC_SUCCESS + delta / 2.0
        best = max(best, min_bits(values, target)
                   - math.log2(math.log2(1.0 / delta)))
    _expect(p, "observation_qubit_bound", res["observation_qubit_bound"]
            ["value"], best - 2.0)
    if sweep_doc is not None:
        _expect(p, "sweep", res.get("sweep"),
                _sweep(f, mu, sweep_doc["deltas"], values))
    return p


def _check_cc(res: dict, cfg: dict, truth) -> list[str]:
    p = []
    f, mu = truth
    n = len(f).bit_length() - 1
    search = tree_values if cfg["method"] == "tree" else one_way_values
    values = search(f, mu, n)
    bits = cfg.get("bits", n)
    _expect(p, "table", res["table"], [
        {"bits": c, "success": values[c], "method": "cc_derived"}
        for c in range(bits + 1)])
    _expect(p, "search_method", res["search_method"], cfg["method"])
    _expect(p, "chernoff.repeats", res["chernoff"]["repeats"],
            math.ceil(3.0 / (1.0 / 6.0) ** 2 - CEIL_GUARD))
    two_thirds = min_bits(values, 2.0 / 3.0)
    rows = []
    for eps in PUMPING_EPSILONS:
        c_eps = min_bits(values, 0.5 + eps)
        bound = 3.0 * c_eps / eps ** 2 if math.isfinite(c_eps) else math.inf
        rows.append({"epsilon": eps, "bits_at_target": c_eps,
                     "bits_at_two_thirds": two_thirds, "pumped_bound": bound,
                     "holds": two_thirds <= bound + 1e-12,
                     "method": "cc_derived"})
    _expect(p, "pumping", res["pumping"], rows)
    return p


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _config(argv) -> dict:
    return _load(argv[list(argv).index("--config") + 1])


def check_job(job, report_path: str, seed: int, default_seed: int,
              exit_code: int) -> list[str]:
    """All problems with one job's report; [] when it is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        report = _load(report_path)
    except (OSError, ValueError) as e:
        return [f"report unreadable: {e}"]
    cfg = _config(job.argv)
    res = report.get("results")
    if not isinstance(res, dict):
        return ["report has no results"]
    problems = []
    try:
        kind = report["command"]
        if kind == "pbt-bench":
            problems += _check_pbt(res, cfg)
        elif kind == "bell-certify":
            if cfg["protocol"] == "builtin:qrac":
                problems += _check_qrac_certify(res, cfg)
            else:
                doc = _load(cfg["protocol"])
                truth = (np.array(doc["truth"]["f"]),
                         np.array(doc["truth"]["mu"], dtype=float))
                problems += _check_certify(res, cfg, truth)
        elif kind == "oneway":
            sweep = _load(cfg["sweep_file"]) if cfg.get("sweep_file") \
                else None
            problems += _check_oneway(
                res, {"deltas": cfg.get("deltas", ONEWAY_DELTAS)}, sweep)
        elif kind == "cc":
            if cfg["function"] == "qrac":
                truth = _qrac_truth()
                _expect(problems, "qrac table",
                        [[r["bits"], r["success"]] for r in res["table"]],
                        [list(r) for r in QRAC_TABLE])
            else:
                doc = _load(cfg["function"])
                truth = (np.array(doc["f"]), np.array(doc["mu"], dtype=float))
            problems += _check_cc(res, cfg, truth)
        else:
            problems.append(f"unexpected command {kind!r}")
    except (KeyError, TypeError, IndexError) as e:
        problems.append(f"report is missing a field: {e!r}")
    if not job.seeded or seed == default_seed:
        ref = reference(job.name)
        if ref is None:
            problems.append(f"no stored reference for {job.name}")
        else:
            problems += close(res, ref["results"], skip=PATH_KEYS)
            problems += close(report.get("warnings"), ref["warnings"],
                              "warnings")
    return problems

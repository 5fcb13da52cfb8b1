"""Self-tests for the benchmark's own code.

    python3 -m pytest bench/test_bench.py -q

They run a few small bellforge commands (about 10 s in total).
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import run  # noqa: E402
from layers import span_stats  # noqa: E402
from workloads import DEFAULT_SEED, Job  # noqa: E402

SHIPPED = os.path.join(run.ROOT, "docs", "examples", "v1")


def _job(name: str, command: str, config: str, out: str) -> Job:
    return Job(name, ("-m", "bellforge", command, "--config", config,
                      "--out", out))


def _check(job: Job, report: str) -> list[str]:
    return check.check_job(job, report, DEFAULT_SEED, DEFAULT_SEED, 0)


def _write(path, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)


def test_closed_forms_agree():
    for n in range(1, 10):
        assert check.pbt_fidelity(n, 2) == pytest.approx(
            check.pbt_fidelity_qubit(n), abs=1e-13)
    assert check.pbt_fidelity(1, 3) == pytest.approx(1 / 9, abs=1e-15)


def test_tree_reference_matches_brute_force():
    """The column-split decomposition equals direct enumeration of the
    (0, 1, 1) split on a small table."""
    from itertools import product
    rng = check.np.random.default_rng(3)
    f = rng.integers(0, 2, size=(4, 4))
    mu = rng.uniform(0.1, 1.0, size=(4, 4))
    mu /= mu.sum()
    best = 0.0
    for m2 in product((0, 1), repeat=4):
        for m3 in product((0, 1), repeat=8):
            total = 0.0
            for y in range(4):
                for k in (0, 1):
                    xs = [x for x in range(4) if m3[2 * x + m2[y]] == k]
                    total += max(sum(mu[x, y] for x in xs if f[x, y] == b)
                                 for b in (0, 1))
            best = max(best, total)
    one_way = check.one_way_values(f, mu, 1)[1]
    assert check.tree_values(f, mu, 1)[1] == one_way
    w = check._weights(f, mu)
    g = check._map_scores(w, 2)
    masks = check.np.array(list(product((0, 1), repeat=4)), dtype=float)
    b = (g @ masks.T).max(axis=0)
    assert float(check.np.max(b + b[::-1])) == pytest.approx(best, abs=1e-12)


def test_checker_passes_shipped_qrac_report():
    """The shipped report differs from a fresh run in the last ulp of some
    fields; science-field comparison must accept it."""
    job = _job("certify_qrac8", "bell-certify",
               os.path.join(SHIPPED, "bell_certify.config.json"), "unused")
    assert _check(job, os.path.join(SHIPPED, "report_bell_certify.json")) \
        == []


@pytest.mark.parametrize("field", [("bell", "value"), ("ratio",),
                                   ("classical", "exact", "delta")])
def test_checker_fails_nudged_field(tmp_path, field):
    with open(os.path.join(SHIPPED, "report_bell_certify.json")) as fh:
        doc = json.load(fh)
    nudged = copy.deepcopy(doc)
    node = nudged["results"]
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] += 1e-6
    job = _job("certify_qrac8", "bell-certify",
               os.path.join(SHIPPED, "bell_certify.config.json"), "unused")
    assert _check(job, _write(tmp_path / "r.json", nudged)) != []


def test_checker_fails_nudged_cc_table(tmp_path):
    with open(os.path.join(SHIPPED, "report_cc.json")) as fh:
        doc = json.load(fh)
    job = _job("cc_qrac", "cc", os.path.join(SHIPPED, "cc.config.json"),
               "unused")
    assert _check(job, os.path.join(SHIPPED, "report_cc.json")) == []
    doc["results"]["table"][1]["success"] += 1e-6
    assert _check(job, _write(tmp_path / "r.json", doc)) != []


def _traced(tmp_path, tag: str, command: str, config: dict):
    """Run one command through traced.py; (wall s, span dump)."""
    cfg = _write(tmp_path / f"{tag}.config.json", config)
    spans = str(tmp_path / f"{tag}.spans.json")
    wall, _, _, code = run.spawn(
        [os.path.join(HERE, "traced.py"), spans, command, "--config", cfg,
         "--out", str(tmp_path / f"{tag}.report.json")],
        run.child_env({"BELLFORGE_THREADS": "1"}), str(tmp_path / "log"))
    assert code == 0
    with open(spans) as fh:
        return wall, json.load(fh)


SMALL = (
    ("certify", "bell-certify", {"command": "bell-certify",
                                 "protocol": "builtin:qrac",
                                 "schedule": [4], "mode": "exact"}),
    ("cc", "cc", {"command": "cc", "function": "qrac", "bits": 2,
                  "method": "tree"}),
)


def test_self_times_fit_in_job_wall(tmp_path):
    for tag, command, config in SMALL:
        wall, dump = _traced(tmp_path, tag, command, config)
        stats = span_stats(dump["spans"])
        total = sum(s["self_s"] for s in stats.values())
        assert 0.0 < total <= wall
        assert all(s["self_s"] >= 0.0 for s in stats.values())


def test_work_counts_repeat_exactly(tmp_path):
    seen = []
    for attempt in range(2):
        counts = {}
        for tag, command, config in SMALL:
            _, dump = _traced(tmp_path, f"{tag}{attempt}", command, config)
            counts.update(dump["sums"])
            counts.update({f"max.{k}": v for k, v in dump["maxes"].items()})
        seen.append(counts)
    assert seen[0] == seen[1]
    for key in ("classicalcc.strategies", "teleport.dense_dim3",
                "max.bell.lhv_space"):
        assert seen[0][key] > 0
